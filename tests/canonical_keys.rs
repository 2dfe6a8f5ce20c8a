//! The store's content addresses do not drift.
//!
//! A cache key hashes a circuit's canonical bytes, so a change to the
//! canonical order or serialization re-keys every entry and silently
//! orphans every existing store: warm runs still match cold runs, but
//! only after recomputing everything. The keys of SOC2's cores and
//! flattened design under the Table 1/2 options are pinned here, and
//! the canonical order of the SOC1 and SOC2 circuits (which have
//! flip-flop edges) is checked against the name-keyed heap reference.

use modsoc::analysis::experiment::ExperimentOptions;
use modsoc::atpg::cache_key;
use modsoc::circuitgen::soc::{soc1, soc2, SocNetlist};
use modsoc::netlist::canonical::canonical_order;
use modsoc::netlist::{Circuit, GateKind, NodeId};

#[path = "canonical/reference.rs"]
mod reference;

/// The cores of `soc` followed by its flattened design.
fn circuits(soc: &SocNetlist) -> Vec<Circuit> {
    let mut circuits = soc.cores().to_vec();
    circuits.push(soc.flatten().expect("flattens"));
    circuits
}

#[test]
fn soc2_cache_keys_are_pinned() {
    let atpg = ExperimentOptions::paper_tables_1_2().atpg;
    let keys: Vec<(String, String)> = circuits(&soc2(1).expect("soc2"))
        .iter()
        .map(|c| {
            let key = cache_key(c, &atpg).expect("acyclic");
            (c.name().to_string(), key.hex())
        })
        .collect();
    let pinned = [
        (
            "core1_s953",
            "ff968fa1183a92b59f0376fe2f0f5fe859e0f740059fa5c98951c8af159ecb5c",
        ),
        (
            "core2_s5378",
            "f0647f6e3d1883a9301d9b03bde07e4c0d6e12c98f56411200d6d7d8a1640605",
        ),
        (
            "core3_s13207",
            "ee9c1587553cdffbcac6cf59ebfb4f835d4cbe0e0f3e4a32281548444e41e70d",
        ),
        (
            "core4_s15850",
            "72ed544950f17b98f0192142e827660fdbd61ae9d7329cad370f0c3ef5d00eda",
        ),
        (
            "SOC2.flat",
            "70e90a9aad69730a0bf6dd97620018637b8478a3d543ac3a2e9521145db3d432",
        ),
    ]
    .map(|(name, key)| (name.to_string(), key.to_string()));
    assert_eq!(keys, pinned);
}

#[test]
fn soc_canonical_orders_match_the_name_heap_reference() {
    for soc in [soc1(1).expect("soc1"), soc2(1).expect("soc2")] {
        for c in circuits(&soc) {
            assert!(c.dff_count() > 0, "{} has flip-flop edges", c.name());
            let order = canonical_order(&c).expect("acyclic");
            assert!(
                Some(order) == reference::name_heap_order(&c),
                "{}: canonical order differs from the reference",
                c.name()
            );
        }
    }
}
