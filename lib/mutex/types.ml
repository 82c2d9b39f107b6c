type node_id = int

type request_id = { source : node_id; seq : int }

let pp_request_id ppf { source; seq } = Format.fprintf ppf "%d#%d" source seq

type enquiry_answer = In_cs | Token_sent | Token_lost

type test_answer = Father_ok | Holder_ok | Try_later

type census_reply = Token_exists | Census_defer

module Message = struct
  type t =
    | Request of { origin : node_id; rid : request_id }
    | Token of { lender : node_id option; rid : request_id option }
    | Enquiry of { rid : request_id }
    | Enquiry_answer of { rid : request_id; answer : enquiry_answer }
    | Test of { d : int }
    | Test_answer of { d : int; answer : test_answer }
    | Anomaly of { rid : request_id }
    | Void of { rid : request_id }
    | Census of { round : int }
    | Census_reply of { round : int; reply : census_reply }
    | Custody of { rid : request_id }
    | Custody_answer of { rid : request_id; held : bool; ahead : int }
    | Probe of { initiator : node_id; rid : request_id; hops : int }
    | Release
    | Sk_request of { origin : node_id; seq : int }
    | Sk_privilege of { queue : node_id list; ln : int array }
    | Ra_request of { origin : node_id; clock : int }
    | Ra_reply

  let pp ppf = function
    | Request { origin; rid } ->
      Format.fprintf ppf "request(origin=%d, rid=%a)" origin pp_request_id rid
    | Token { lender; rid } ->
      let pp_lender ppf = function
        | None -> Format.pp_print_string ppf "nil"
        | Some l -> Format.pp_print_int ppf l
      in
      let pp_rid ppf = function
        | None -> Format.pp_print_string ppf "-"
        | Some r -> pp_request_id ppf r
      in
      Format.fprintf ppf "token(lender=%a, rid=%a)" pp_lender lender pp_rid rid
    | Enquiry { rid } -> Format.fprintf ppf "enquiry(%a)" pp_request_id rid
    | Enquiry_answer { rid; answer } ->
      let s =
        match answer with
        | In_cs -> "in-cs"
        | Token_sent -> "token-sent"
        | Token_lost -> "token-lost"
      in
      Format.fprintf ppf "enquiry_answer(%a, %s)" pp_request_id rid s
    | Test { d } -> Format.fprintf ppf "test(%d)" d
    | Test_answer { d; answer } ->
      let s =
        match answer with
        | Father_ok -> "ok"
        | Holder_ok -> "holder-ok"
        | Try_later -> "try-later"
      in
      Format.fprintf ppf "test_answer(%d, %s)" d s
    | Anomaly { rid } -> Format.fprintf ppf "anomaly(%a)" pp_request_id rid
    | Void { rid } -> Format.fprintf ppf "void(%a)" pp_request_id rid
    | Census { round } -> Format.fprintf ppf "census(%d)" round
    | Census_reply { round; reply } ->
      let s =
        match reply with
        | Token_exists -> "token-exists"
        | Census_defer -> "defer"
      in
      Format.fprintf ppf "census_reply(%d, %s)" round s
    | Custody { rid } -> Format.fprintf ppf "custody(%a)" pp_request_id rid
    | Custody_answer { rid; held = true; ahead } ->
      Format.fprintf ppf "custody_answer(%a, held, ahead=%d)" pp_request_id rid
        ahead
    | Custody_answer { rid; held = false; _ } ->
      Format.fprintf ppf "custody_answer(%a, not-held)" pp_request_id rid
    | Probe { initiator; rid; hops } ->
      Format.fprintf ppf "probe(%d, %a, %d)" initiator pp_request_id rid hops
    | Release -> Format.pp_print_string ppf "release"
    | Sk_request { origin; seq } ->
      Format.fprintf ppf "sk_request(%d, %d)" origin seq
    | Sk_privilege { queue; _ } ->
      Format.fprintf ppf "sk_privilege(q=[%s])"
        (String.concat ";" (List.map string_of_int queue))
    | Ra_request { origin; clock } ->
      Format.fprintf ppf "ra_request(%d, %d)" origin clock
    | Ra_reply -> Format.pp_print_string ppf "ra_reply"

  let category_names =
    [| "request"; "token"; "enquiry"; "enquiry_answer"; "test"; "test_answer";
       "anomaly"; "void"; "census"; "census_reply"; "custody";
       "custody_answer"; "release"; "reply"; "probe" |]

  let category_index = function
    | Request _ | Sk_request _ | Ra_request _ -> 0
    | Token _ | Sk_privilege _ -> 1
    | Enquiry _ -> 2
    | Enquiry_answer _ -> 3
    | Test _ -> 4
    | Test_answer _ -> 5
    | Anomaly _ -> 6
    | Void _ -> 7
    | Census _ -> 8
    | Census_reply _ -> 9
    | Custody _ -> 10
    | Custody_answer _ -> 11
    | Release -> 12
    | Ra_reply -> 13
    | Probe _ -> 14

  let category m = category_names.(category_index m)

  let no_origin = -1

  let origin = function
    | Request { rid; _ } -> rid.source
    | Token { rid = Some r; _ } -> r.source
    | Token { rid = None; _ } -> no_origin
    | Enquiry { rid } -> rid.source
    | Enquiry_answer { rid; _ } -> rid.source
    | Anomaly { rid } -> rid.source
    | Void { rid } -> rid.source
    | Custody { rid } -> rid.source
    | Custody_answer { rid; _ } -> rid.source
    | Probe { rid; _ } -> rid.source
    | Sk_request { origin; _ } -> origin
    | Ra_request { origin; _ } -> origin
    | Test _ | Test_answer _ | Census _ | Census_reply _ | Release
    | Sk_privilege _ | Ra_reply ->
      no_origin

  let is_fault_overhead_category = function
    | "enquiry" | "enquiry_answer" | "test" | "test_answer" | "anomaly"
    | "void" | "census" | "census_reply" | "custody" | "custody_answer"
    | "probe" ->
      true
    | _ -> false

  let is_fault_overhead m = is_fault_overhead_category (category m)
end

module Net = Ocube_net.Network.Make (Message)

type callbacks = {
  on_enter : node_id -> unit;
  on_exit : node_id -> unit;
}

let null_callbacks = { on_enter = ignore; on_exit = ignore }

type instance = {
  algo_name : string;
  request_cs : node_id -> unit;
  release_cs : node_id -> unit;
  on_recovered : node_id -> unit;
  snapshot_tree : unit -> node_id option array option;
  token_holders : unit -> node_id list;
  invariant_check : unit -> (unit, string) result;
  repair_bound : float;
}

let holders_error holders =
  Printf.sprintf "token: %d simultaneous holders (%s)" (List.length holders)
    (String.concat "," (List.map string_of_int holders))

let token_verdict ~in_cs ~held ~in_flight token_holders t =
  if in_cs > 1 then Error "mutual exclusion violated: >1 node in CS"
  else if held > 1 then Error (holders_error (token_holders t))
  else if held + in_flight <> 1 then
    Error
      (Printf.sprintf "token count %d (held %d + in flight %d) should be 1"
         (held + in_flight) held in_flight)
  else Ok ()
