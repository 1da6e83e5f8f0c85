type row = { arrival_ms : float; completion_ms : float option; completed : bool }

type summary = {
  arrivals : int;
  good : int;
  makespan_s : float;
  services : float array;
}

let service ~slo_ms r =
  match r.completion_ms with
  | Some c when r.completed && c -. r.arrival_ms <= slo_ms -> c -. r.arrival_ms
  | _ -> Float.infinity

let summarise ~slo_ms rows =
  let services = Array.of_list (List.map (service ~slo_ms) rows) in
  Array.sort Float.compare services;
  let first = List.fold_left (fun a r -> Float.min a r.arrival_ms) Float.infinity rows in
  let last =
    List.fold_left
      (fun a r -> Option.fold ~none:a ~some:(Float.max a) r.completion_ms)
      Float.neg_infinity rows
  in
  {
    arrivals = List.length rows;
    good = Array.fold_left (fun n s -> if Float.is_finite s then n + 1 else n) 0 services;
    makespan_s = (if last > first then (last -. first) /. 1000.0 else 0.0);
    services;
  }

let pool summaries =
  let services = Array.concat (List.map (fun s -> s.services) summaries) in
  Array.sort Float.compare services;
  {
    arrivals = List.fold_left (fun n s -> n + s.arrivals) 0 summaries;
    good = List.fold_left (fun n s -> n + s.good) 0 summaries;
    makespan_s = List.fold_left (fun a s -> a +. s.makespan_s) 0.0 summaries;
    services;
  }

let goodput_rps s = if s.makespan_s > 0.0 then float_of_int s.good /. s.makespan_s else 0.0

let attainment s =
  if s.arrivals = 0 then 1.0 else float_of_int s.good /. float_of_int s.arrivals

let percentile s p =
  let n = Array.length s.services in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.services.(max 0 (min (n - 1) (rank - 1)))

let tail s =
  let n = Array.length s.services in
  if n < 11 then None
  else Some (float_of_int (n - 10) /. float_of_int n, s.services.(n - 11), n)

let miss_reading ~slo_ms v = if Float.is_finite v then v else 10.0 *. slo_ms

type rung = { rate_rps : float; rung_attainment : float }

let max_rate ~threshold rungs =
  let rec go (prev : rung) = function
    | [] -> prev.rate_rps
    | r :: rest when r.rung_attainment >= threshold -> go r rest
    | r :: _ ->
        let share =
          (prev.rung_attainment -. threshold) /. (prev.rung_attainment -. r.rung_attainment)
        in
        prev.rate_rps +. (share *. (r.rate_rps -. prev.rate_rps))
  in
  go { rate_rps = 0.0; rung_attainment = 1.0 } rungs
