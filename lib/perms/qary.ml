let check_q q = if q < 2 then invalid_arg "Qary: q must be >= 2"

let digits ~q ~width pid =
  check_q q;
  if width < 0 then invalid_arg "Qary.digits: negative width";
  if pid < 0 then invalid_arg "Qary.digits: negative pid";
  let a = Array.make width 0 in
  let v = ref pid in
  for m = 0 to width - 1 do
    a.(m) <- !v mod q;
    v := !v / q
  done;
  a
