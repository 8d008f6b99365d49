//! Cross-model agreement: the explicit block-movement model and the cache
//! simulator are independent implementations of the paper's refined
//! model, so for the WA kernels their slow-memory write counts must
//! coincide — programmatically, through the registry, not by eyeball.
//!
//! Tolerances (documented per ISSUE 3):
//!
//! * `matmul-wa` — **exact**. Blocks are whole cache lines by
//!   construction (`sim_block_and_dim` rounds to 8-word lines) and the
//!   simulator is flushed, so LRU write-backs equal the explicit stores
//!   word-for-word (Proposition 6.1).
//! * `nbody-wa` — **exact**, at both scales. The explicit model counts
//!   particles and the simulator counts words (4 words/body), so the
//!   comparison converts via `WORDS_PER_BODY`. Blocks hold whole lines
//!   (b = 102 and 204 bodies, 2 bodies/line) and the cache has
//!   Proposition 6.2's five-block slack, so every force line is written
//!   back exactly once.

use wa_bench::registry::registry;
use wa_core::{BackendKind, Scale};

/// Slow-memory writes (words) for `name` on `backend` at `scale`.
fn writes_to_slow(name: &str, backend: BackendKind, scale: Scale) -> u64 {
    registry()
        .run(name, backend, scale)
        .unwrap_or_else(|e| panic!("{name} on {backend}: {e}"))
        .writes_to_slow()
}

#[test]
fn wa_matmul_explicit_and_simmed_slow_writes_agree_exactly() {
    let explicit = writes_to_slow("matmul-wa", BackendKind::Explicit, Scale::Small);
    let simmed = writes_to_slow("matmul-wa", BackendKind::Simmed, Scale::Small);
    assert!(explicit > 0);
    assert_eq!(
        explicit, simmed,
        "explicit {explicit} vs simulated {simmed} slow-memory writes"
    );
}

#[test]
fn wa_nbody_explicit_and_simmed_slow_writes_agree_exactly() {
    // Explicit counts particles; convert to words before comparing.
    for scale in [Scale::Small, Scale::Paper] {
        let explicit_particles = writes_to_slow("nbody-wa", BackendKind::Explicit, scale);
        let explicit_words = explicit_particles * nbody::force::WORDS_PER_BODY as u64;
        let simmed_words = writes_to_slow("nbody-wa", BackendKind::Simmed, scale);
        assert!(explicit_words > 0);
        assert_eq!(
            explicit_words, simmed_words,
            "{scale:?}: explicit {explicit_words} vs simulated {simmed_words} slow-memory write words"
        );
    }
}

#[test]
fn explicit_and_simmed_reports_share_the_json_schema() {
    let reg = registry();
    let exp = reg
        .run("matmul-wa", BackendKind::Explicit, Scale::Small)
        .unwrap()
        .to_json();
    let sim = reg
        .run("matmul-wa", BackendKind::Simmed, Scale::Small)
        .unwrap()
        .to_json();
    for key in [
        "\"workload\":",
        "\"backend\":",
        "\"scale\":",
        "\"config\":",
        "\"boundaries\":",
        "\"load_words\":",
        "\"store_words\":",
        "\"writes_per_level\":",
        "\"flops\":",
        "\"wall_ns\":",
        "\"notes\":",
    ] {
        assert!(exp.contains(key), "explicit report missing {key}");
        assert!(sim.contains(key), "simulated report missing {key}");
    }
}

#[test]
fn non_wa_matmul_writes_far_exceed_the_wa_count_on_both_models() {
    // The agreement is meaningful only if the models also agree on the
    // *contrast*: the non-WA order must write several times the output on
    // each model (n/b = 2 blocks per dimension here -> ~2x the output).
    for backend in [BackendKind::Explicit, BackendKind::Simmed] {
        let wa = writes_to_slow("matmul-wa", backend, Scale::Small);
        let non = writes_to_slow("matmul-nonwa", backend, Scale::Small);
        assert!(
            non >= 2 * wa,
            "{backend}: non-WA {non} vs WA {wa} slow-memory writes"
        );
    }
}
