(* The output oracle, independent of the search: a returned mapping must be
   legal by [Sun_analysis.Legality] and the frozen reference cost model
   [Sun_cost.Model_ref] must re-derive bit-identical energy, cycles and
   EDP for it. *)

module Model = Sun_cost.Model

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_cost (c : Model.cost) ~energy_pj ~cycles ~edp =
  same_float c.Model.energy_pj energy_pj && same_float c.Model.cycles cycles
  && same_float c.Model.edp edp

let legal w a levels =
  match Sun_analysis.Diagnostic.errors (Sun_analysis.Legality.check_all w a levels) with
  | [] -> Ok ()
  | d :: _ -> Error ("illegal mapping: " ^ d.Sun_analysis.Diagnostic.message)

(* [check w a levels ~energy_pj ~cycles ~edp]: the claimed cost of a
   mapping given as raw levels. *)
let check w a levels ~energy_pj ~cycles ~edp =
  match legal w a levels with
  | Error _ as e -> e
  | Ok () -> (
    match Sun_mapping.Mapping.make w levels with
    | Error e -> Error ("mapping does not build: " ^ e)
    | Ok m -> (
      match Sun_cost.Model_ref.evaluate w a m with
      | Error e -> Error ("reference model rejects the mapping: " ^ e)
      | Ok ref_cost ->
        if same_cost ref_cost ~energy_pj ~cycles ~edp then Ok ()
        else
          Error
            (Printf.sprintf
               "cost differs from the reference model: energy %h vs %h, cycles %h vs %h, edp %h \
                vs %h"
               energy_pj ref_cost.Model.energy_pj cycles ref_cost.Model.cycles edp
               ref_cost.Model.edp)))

let check_result w a (r : Sun_core.Optimizer.result) =
  let c = r.Sun_core.Optimizer.cost in
  check w a
    (Array.to_list r.Sun_core.Optimizer.mapping.Sun_mapping.Mapping.levels)
    ~energy_pj:c.Model.energy_pj ~cycles:c.Model.cycles ~edp:c.Model.edp
