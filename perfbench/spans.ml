type span = {
  id : int;
  name : string;
  query : int;
  parent : int option;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  mutable query : int;
}

let create () = { spans = []; stack = []; next = 0; query = 0 }
let set_query t q = t.query <- q

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  let query = t.query in
  t.stack <- id :: t.stack;
  let start_ns = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = Clock.now_ns () in
      t.stack <- (match t.stack with _ :: s -> s | [] -> []);
      t.spans <- { id; name; query; parent; start_ns; stop_ns } :: t.spans)
    f

let spans t = List.rev t.spans

(* Union length of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let rec sweep acc reach = function
    | [] -> acc
    | (a, b) :: rest ->
        let a = max a reach in
        if Int64.compare a b >= 0 then sweep acc reach rest
        else sweep (Int64.add acc (Int64.sub b a)) b rest
  in
  sweep 0L Int64.min_int (List.sort compare clipped)

let self_ns all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace children p ((s.start_ns, s.stop_ns) :: (try Hashtbl.find children p with Not_found -> []))
      | None -> ())
    all;
  List.map
    (fun s ->
      let kids = try Hashtbl.find children s.id with Not_found -> [] in
      (s, Int64.sub (Int64.sub s.stop_ns s.start_ns) (covered ~lo:s.start_ns ~hi:s.stop_ns kids)))
    all

let self_ms_by_name all =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, ns) ->
      let prev = try Hashtbl.find tbl s.name with Not_found -> 0. in
      Hashtbl.replace tbl s.name (prev +. (Int64.to_float ns /. 1e6)))
    (self_ns all);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let to_json s =
  Printf.sprintf "{\"id\":%d,\"name\":%S,\"query\":%d,\"parent\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld}"
    s.id s.name s.query
    (match s.parent with Some p -> string_of_int p | None -> "null")
    s.start_ns s.stop_ns
