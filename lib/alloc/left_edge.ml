open Hls_util

let assign items =
  let sorted =
    List.sort (fun (_, a) (_, b) -> Interval.compare_lo a b) items
  in
  (* ends.(t) = hi of the last interval placed on track t < n *)
  let ends = Array.make (List.length items) 0 and n = ref 0 in
  let assignment =
    List.map
      (fun (key, (iv : Interval.t)) ->
        let rec find t = if t >= !n || ends.(t) < iv.Interval.lo then t else find (t + 1) in
        let t = find 0 in
        if t = !n then incr n;
        ends.(t) <- iv.Interval.hi;
        (key, t))
      sorted
  in
  (assignment, !n)
