(* Top-level lint entry points: thin dispatch over Rules. *)

let design = Rules.design_rules
let datapath = Rules.datapath_rules
let graph = Rules.graph_rules
let schedule = Rules.schedule_rules
let behaviour g assignments = Rules.graph_rules g @ Rules.schedule_rules g assignments
let has_errors ds = Diagnostic.errors ds <> []
