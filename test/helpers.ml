(* Shared test utilities: QCheck generators for the domain types and
   small wrappers to register QCheck properties as alcotest cases. *)

open Lph_core

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let check_bool name expected actual = Alcotest.(check bool) name expected actual

let check_int name expected actual = Alcotest.(check int) name expected actual

let check_string name expected actual = Alcotest.(check string) name expected actual

let qcheck ?(count = 100) name arbitrary property =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary property)

(* run [f] under wire mode [m], restoring the previous mode after *)
let with_mode m f =
  let old = Codec.wire_mode () in
  Codec.set_wire_mode m;
  Fun.protect ~finally:(fun () -> Codec.set_wire_mode old) f

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_bitstring ?(max_len = 6) () =
  QCheck.Gen.(
    int_range 0 max_len >>= fun len ->
    string_size ~gen:(map (fun b -> if b then '1' else '0') bool) (return len))

let arb_bitstring =
  QCheck.make ~print:(fun s -> s) (gen_bitstring ())

(* a random connected labelled graph with n in [1, max_nodes] *)
let gen_graph ?(max_nodes = 7) ?(label_bits = 1) () =
  QCheck.Gen.(
    int_range 1 max_nodes >>= fun n ->
    int_range 0 (max 0 (n - 1)) >>= fun extra ->
    int_bound 1_000_000 >>= fun seed ->
    return
      (Generators.random_connected
         ~rng:(Random.State.make [| seed |])
         ~n ~extra_edges:extra ~label_bits ()))

let graph_print g = Format.asprintf "%a" Graph.pp g

let arb_graph ?max_nodes ?label_bits () =
  QCheck.make ~print:graph_print (gen_graph ?max_nodes ?label_bits ())

(* a random Boolean formula over the given variable pool *)
let gen_bool_formula ?(vars = [ "p"; "q"; "r" ]) ?(depth = 4) () =
  let open QCheck.Gen in
  let rec go depth =
    if depth = 0 then
      oneof [ map (fun v -> Bool_formula.Var v) (oneofl vars); map (fun b -> Bool_formula.Const b) bool ]
    else
      frequency
        [
          (2, map (fun v -> Bool_formula.Var v) (oneofl vars));
          (1, map (fun f -> Bool_formula.Not f) (go (depth - 1)));
          (2, map2 (fun f g -> Bool_formula.And (f, g)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun f g -> Bool_formula.Or (f, g)) (go (depth - 1)) (go (depth - 1)));
        ]
  in
  go depth

let arb_bool_formula ?vars ?depth () =
  QCheck.make ~print:Bool_formula.to_string (gen_bool_formula ?vars ?depth ())

(* a random picture *)
let gen_picture ?(bits = 1) ?(max_dim = 3) () =
  QCheck.Gen.(
    int_range 1 max_dim >>= fun rows ->
    int_range 1 max_dim >>= fun cols ->
    list_size
      (return (rows * cols))
      (string_size ~gen:(map (fun b -> if b then '1' else '0') bool) (return bits))
    >>= fun entries ->
    let arr = Array.of_list entries in
    return (Picture.create ~bits ~rows ~cols (fun i j -> arr.(((i - 1) * cols) + (j - 1)))))

let arb_picture ?bits ?max_dim () =
  QCheck.make ~print:(Format.asprintf "%a" Picture.pp) (gen_picture ?bits ?max_dim ())

(* random words over a small alphabet *)
let gen_word ~alphabet ~max_len =
  QCheck.Gen.(int_range 0 max_len >>= fun len -> list_size (return len) (int_bound (alphabet - 1)))

let arb_word ~alphabet ~max_len =
  QCheck.make
    ~print:(fun w -> String.concat "," (List.map string_of_int w))
    (gen_word ~alphabet ~max_len)

let global_ids g = Identifiers.make_global g
