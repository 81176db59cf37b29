(* benchmark/expected.json: the simulated result of every fixed-program
   cell at the headline configuration. A benchmark run checks each cell
   against it, so a change that moves one simulated cycle, instruction,
   collection or output byte fails the run instead of shifting a metric. *)

module J = Telemetry.Json

type entry = { cycles : int; retired : int; gc_count : int; output_md5 : string }

let schema = "spf_e2e_expected/v1"
let default_path = "benchmark/expected.json"

let of_outcome (o : Wiring.outcome) =
  {
    cycles = o.cycles;
    retired = o.retired;
    gc_count = o.gc_count;
    output_md5 = Digest.to_hex (Digest.string o.output);
  }

(* [None] when [got] matches; otherwise the differing fields. *)
let mismatch ~expected got =
  let diffs =
    List.filter_map
      (fun (field, a, b) ->
        if a = b then None else Some (Printf.sprintf "%s %s, expected %s" field b a))
      [
        ("cycles", string_of_int expected.cycles, string_of_int got.cycles);
        ("retired", string_of_int expected.retired, string_of_int got.retired);
        ("gc_count", string_of_int expected.gc_count, string_of_int got.gc_count);
        ("output md5", expected.output_md5, got.output_md5);
      ]
  in
  if diffs = [] then None else Some (String.concat "; " diffs)

let entry_json e =
  J.Obj
    [
      ("cycles", J.Int e.cycles);
      ("retired", J.Int e.retired);
      ("gc_count", J.Int e.gc_count);
      ("output_md5", J.Str e.output_md5);
    ]

(* One cell per line, so a change to expected.json diffs per cell. *)
let write ~path entries =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": %s,\n  \"cells\": {\n"
    (J.to_string (J.Str schema));
  List.iteri
    (fun i (key, e) ->
      Printf.fprintf oc "    %s: %s%s\n"
        (J.to_string (J.Str key))
        (J.to_string (entry_json e))
        (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "  }\n}\n";
  close_out oc

let read ~path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let json = match J.parse text with Ok j -> j | Error e -> fail e in
  if J.member "schema" json <> Some (J.Str schema) then
    fail ("not a " ^ schema ^ " file");
  let int k e =
    match J.member k e with Some (J.Int i) -> i | _ -> fail ("bad field " ^ k)
  in
  match J.member "cells" json with
  | Some (J.Obj cells) ->
      List.map
        (fun (key, e) ->
          ( key,
            {
              cycles = int "cycles" e;
              retired = int "retired" e;
              gc_count = int "gc_count" e;
              output_md5 =
                (match J.member "output_md5" e with
                | Some (J.Str s) -> s
                | _ -> fail "bad field output_md5");
            } ))
        cells
  | _ -> fail "no cells object"
