type 'a t = { mutable data : 'a option array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length v = v.size

let grow v =
  let cap = Array.length v.data in
  if v.size >= cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let ndata = Array.make ncap None in
    Array.blit v.data 0 ndata 0 v.size;
    v.data <- ndata
  end

let push v x =
  grow v;
  let i = v.size in
  v.data.(i) <- Some x;
  v.size <- v.size + 1;
  i

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get: index out of bounds";
  match v.data.(i) with Some x -> x | None -> invalid_arg "Vec.get: hole"

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set: index out of bounds";
  v.data.(i) <- Some x

let iteri f v =
  for i = 0 to v.size - 1 do
    f i (get v i)
  done

let to_list v =
  let rec build i acc = if i < 0 then acc else build (i - 1) (get v i :: acc) in
  build (v.size - 1) []

let fold_left f init v =
  let acc = ref init in
  iteri (fun _ x -> acc := f !acc x) v;
  !acc

let exists p v =
  let rec loop i = i < v.size && (p (get v i) || loop (i + 1)) in
  loop 0
