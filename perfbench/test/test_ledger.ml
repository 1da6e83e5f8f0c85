(* The serving figures on a hand-built ledger. *)

module L = Perfbench.Ledger

let slo_ms = 1000.0
let row ?completion ?(completed = true) arrival_ms =
  { L.arrival_ms; completion_ms = completion; completed }

(* Four arrivals: one good, one completed late, one shed, one failed
   after its batch produced output. *)
let ledger =
  [
    row 100.0 ~completion:600.0;
    row 200.0 ~completion:1500.0;
    row 300.0 ~completed:false;
    row 400.0 ~completion:900.0 ~completed:false;
  ]

let close = Alcotest.float 1e-12

let test_misses () =
  let s = L.summarise ~slo_ms ledger in
  Alcotest.(check int) "arrivals" 4 s.L.arrivals;
  Alcotest.(check int) "only the on-time completion is good" 1 s.L.good;
  Alcotest.check close "attainment over all arrivals" 0.25 (L.attainment s);
  Alcotest.check close "p25 is the good request" 500.0 (L.percentile s 0.25);
  Alcotest.(check bool) "the median is a miss" true (L.percentile s 0.5 = Float.infinity);
  Alcotest.check close "a miss reads as 10x the SLO" 10_000.0
    (L.miss_reading ~slo_ms (L.percentile s 0.5))

let test_makespan () =
  let s = L.summarise ~slo_ms ledger in
  (* First arrival (100 ms) to last completion (1500 ms), late or not. *)
  Alcotest.check close "makespan" 1.4 s.L.makespan_s;
  Alcotest.check close "goodput" (1.0 /. 1.4) (L.goodput_rps s);
  let none = L.summarise ~slo_ms [ row 0.0 ~completed:false ] in
  Alcotest.check close "no completion, no goodput" 0.0 (L.goodput_rps none)

let test_pool_and_tail () =
  (* Services 100..119 ms. *)
  let many = List.init 20 (fun i -> row (float_of_int i) ~completion:(float_of_int (100 + (2 * i)))) in
  let s = L.pool [ L.summarise ~slo_ms many; L.summarise ~slo_ms ledger ] in
  Alcotest.(check int) "pooled arrivals" 24 s.L.arrivals;
  Alcotest.(check int) "pooled good" 21 s.L.good;
  match L.tail s with
  | None -> Alcotest.fail "24 samples have a tail"
  | Some (p, v, n) ->
      Alcotest.(check int) "samples" 24 n;
      Alcotest.check close "percentile with ten beyond" (14.0 /. 24.0) p;
      Alcotest.check close "value" 113.0 v

let test_max_rate () =
  let rung rate att = { L.rate_rps = rate; rung_attainment = att } in
  Alcotest.check close "every rung passes" 3.0
    (L.max_rate ~threshold:0.99 [ rung 1.0 1.0; rung 2.0 1.0; rung 3.0 0.995 ]);
  Alcotest.check close "interpolated into the failing rung" 2.5
    (L.max_rate ~threshold:0.99 [ rung 1.0 1.0; rung 2.0 1.0; rung 3.0 0.98; rung 4.0 1.0 ]);
  Alcotest.check close "lowest rung fails: from zero" 0.5
    (L.max_rate ~threshold:0.99 [ rung 1.0 0.98 ])

let () =
  Alcotest.run "perfbench"
    [
      ( "ledger",
        [
          Alcotest.test_case "sheds and failures are misses" `Quick test_misses;
          Alcotest.test_case "makespan: first arrival to last completion" `Quick test_makespan;
          Alcotest.test_case "pooling and tail" `Quick test_pool_and_tail;
          Alcotest.test_case "max rate on the ladder" `Quick test_max_rate;
        ] );
    ]
