type t = { headers : string list; mutable rows : string list list }

let create ~headers = { headers; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length t.headers) rows
  in
  let pad row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let all = pad t.headers :: List.map pad rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter measure all;
  let buf = Buffer.create 256 in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row (pad t.headers);
  let sep = List.init ncols (fun i -> String.make widths.(i) '-') in
  emit_row sep;
  List.iter emit_row (List.map pad rows);
  Buffer.contents buf

let print t = print_string (render t)
