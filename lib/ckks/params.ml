type t = {
  log2_degree : int;
  scale_bits : int;
  waterline_bits : int;
  q0_bits : int;
  l_max : int;
  input_level : int;
  input_scale_bits : int;
  bootstrap_depth : int;
}

let default =
  {
    log2_degree = 16;
    scale_bits = 56;
    waterline_bits = 56;
    q0_bits = 60;
    l_max = 16;
    input_level = 16;
    input_scale_bits = 56;
    bootstrap_depth = 15;
  }

let fig1 =
  {
    log2_degree = 16;
    scale_bits = 40;
    waterline_bits = 40;
    q0_bits = 40;
    l_max = 3;
    input_level = 1;
    input_scale_bits = 40;
    bootstrap_depth = 15;
  }

let slot_count p = 1 lsl (p.log2_degree - 1)

let with_l_max p l_max = { p with l_max }
let at_l_max l = { default with l_max = l; input_level = l }

let validate p =
  if p.log2_degree < 2 || p.log2_degree > 20 then Error "log2_degree out of range"
  else if p.scale_bits <= 0 then Error "scale_bits must be positive"
  else if p.waterline_bits <= 0 then Error "waterline_bits must be positive"
  else if p.waterline_bits > p.scale_bits then Error "waterline above scale factor"
  else if p.q0_bits < p.scale_bits then Error "q0 must be at least the scale factor"
  else if p.l_max < 1 then Error "l_max must be at least 1"
  else if p.input_level < 0 then Error "input_level must be non-negative"
  else if p.input_scale_bits <= 0 then Error "input_scale_bits must be positive"
  else Ok ()

let pp ppf p =
  Format.fprintf ppf
    "@[<h>N=2^%d q=2^%d q_w=2^%d q0=2^%d l_max=%d input@(L%d, 2^%d)@]" p.log2_degree
    p.scale_bits p.waterline_bits p.q0_bits p.l_max p.input_level p.input_scale_bits
