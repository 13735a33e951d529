//! The committed EXPERIMENTS.md is the golden for `netsim::json`: its
//! `## Raw data` block was printed by `serde_json` at full scale, and the
//! writer `all` now uses must reproduce it byte for byte from the parsed
//! value — key order, two-space indent, `57201.0`-style floats and all.

use netsim::Json;

#[test]
fn raw_data_block_reprints_byte_identical() {
    let md = include_str!("../EXPERIMENTS.md");
    let block = md
        .split_once("## Raw data\n\n```json\n")
        .and_then(|(_, rest)| rest.split_once("\n```"))
        .map(|(block, _)| block)
        .expect("EXPERIMENTS.md ends with a fenced `## Raw data` block");
    let doc: Json = block.parse().expect("the raw data block is JSON");

    // Every artefact is there, and integers and floats read as what they are.
    let ids: Vec<&str> = doc.as_object().expect("an object").keys().map(String::as_str).collect();
    assert_eq!(ids.len(), 12, "table1 and fig02–fig12: {ids:?}");
    assert!(doc["table1"]["greedy"]["distinct_peers"].as_u64().is_some());
    assert!(matches!(doc["fig03"]["tail_new_per_day"], Json::F64(_)));

    assert!(doc.pretty() == block, "re-printed raw data differs from the committed block");
}
