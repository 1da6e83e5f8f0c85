type sample = { image : float array; label : int }

let images ?(seed = 0x0DA7A5E7L) ~dim ~count () =
  let rng = Ckks.Prng.create seed in
  Array.init count (fun _ -> Array.init dim (fun _ -> Ckks.Prng.uniform rng ~lo:(-1.0) ~hi:1.0))

let argmax ~classes v =
  let classes = min classes (Array.length v) in
  let best = ref 0 in
  for i = 1 to classes - 1 do
    if v.(i) > v.(!best) then best := i
  done;
  !best

let labelled ?(seed = 0x0DA7A5E7L) ~dim ~count ~classes ~infer () =
  let rng = Ckks.Prng.create (Int64.add seed 1L) in
  let imgs = images ~seed ~dim ~count () in
  Array.map
    (fun image ->
      (* Ground-truth labels are the model's own class scores perturbed
         relative to their spread: the model then scores high but not
         perfectly against them, like a trained network on held-out data. *)
      let scores = infer image in
      let classes = min classes (Array.length scores) in
      let lo = ref infinity and hi = ref neg_infinity in
      for c = 0 to classes - 1 do
        lo := Float.min !lo scores.(c);
        hi := Float.max !hi scores.(c)
      done;
      let spread = Float.max (!hi -. !lo) 1e-9 in
      let noisy =
        Array.init classes (fun c ->
            scores.(c) +. (0.08 *. spread *. Ckks.Prng.gaussian rng))
      in
      { image; label = argmax ~classes noisy })
    imgs
