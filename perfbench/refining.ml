module Gather = Lph_core.Gather
module Certificates = Lph_core.Certificates

let colour = function "0" -> Some 0 | "1" -> Some 1 | "10" -> Some 2 | _ -> None

let verifier =
  Gather.algo ~name:"perfbench-flag-3col" ~radius:1 ~levels:2 ~decide:(fun ctx ball ->
      ctx.Lph_core.Local_algo.charge (2 * List.length ball.Gather.entries);
      let levels e = Certificates.split_list ~levels:2 e.Gather.cert in
      let eve e = colour (List.hd (levels e)) in
      match List.partition (fun e -> e.Gather.dist = 0) ball.Gather.entries with
      | [ self ], rest -> (
          let nbrs = List.filter (fun e -> e.Gather.dist = 1) rest in
          match eve self with
          | None -> false
          | Some mine ->
              List.for_all (fun e -> match eve e with Some c -> c <> mine | None -> false) nbrs
              && not (mine = 2 && List.nth (levels self) 1 = "1"))
      | _ -> false)

let universes = [ Lph_core.Candidates.color_universe 3; Lph_core.Candidates.color_universe 2 ]
