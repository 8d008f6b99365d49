//! Deterministic fault injection — the test rig behind the engine's
//! panic-containment and deadline machinery.
//!
//! A [`FaultPlan`] is a list of rules, each naming a workload, an
//! invocation ordinal, and a [`FaultKind`]. The registry consults the
//! plan on every dispatch (`Registry::set_fault_plan`); when a workload's
//! Nth invocation matches a rule, the engine injects the fault *inside*
//! the guarded execution path, so the containment layer sees exactly what
//! a real crash/livelock/bit-flip would look like:
//!
//! * [`FaultKind::Panic`] — the dispatch panics before the workload runs;
//!   containment must surface `EngineError::Panicked`.
//! * [`FaultKind::Stall`] — the dispatch sleeps for the given duration
//!   before running, checking the cancel token every 10 ms
//!   (`crate::cancel::sleep_cooperatively`); with a shorter
//!   [`crate::engine::RunCfg::timeout`] the attempt must surface
//!   `EngineError::Cancelled` with the `deadline` reason.
//! * [`FaultKind::Corrupt`] — the workload runs normally, then its
//!   counters are deterministically corrupted (`corrupt_report`), so
//!   downstream agreement checks must flag the report.
//!
//! Every dispatch of the workload is one invocation, so `panic@1` fails
//! the first dispatch and spares the next. Plans parse from a compact
//! spec string (harness `--fault-plan`, env `WA_FAULT_PLAN`):
//!
//! ```text
//! spec  := rule ("," rule)*
//! rule  := workload ":" kind ("@" nth)?          nth defaults to 1
//! kind  := "panic" | "corrupt" | "stall=" MILLIS ["ms"]
//! ```
//!
//! e.g. `matmul-wa:panic@1,lu-wa:stall=2000,cg:corrupt@2`.

use crate::report::RunReport;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// What an injected fault does to the dispatch it fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before the workload runs.
    Panic,
    /// Sleep this long before the workload runs (livelock stand-in).
    Stall(Duration),
    /// Run normally, then corrupt the report's counters.
    Corrupt,
}

/// One rule: fire `kind` on the `nth` (1-based) invocation of `workload`.
#[derive(Clone, Debug)]
pub(crate) struct FaultRule {
    pub workload: String,
    pub nth: u64,
    pub kind: FaultKind,
}

/// A set of `FaultRule`s plus per-workload invocation counters.
/// Counting is internal and thread-safe, so a plan installed on a
/// registry behaves deterministically even under a parallel sweep.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    hits: Mutex<BTreeMap<String, u64>>,
}

impl FaultPlan {
    pub(crate) fn new(rules: Vec<FaultRule>) -> Self {
        FaultPlan {
            rules,
            hits: Mutex::new(BTreeMap::new()),
        }
    }

    /// Parse the spec grammar in the module docs. Errors name the bad rule.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (workload, rest) = raw
                .split_once(':')
                .ok_or_else(|| format!("fault rule `{raw}`: expected `workload:kind[@n]`"))?;
            if workload.is_empty() {
                return Err(format!("fault rule `{raw}`: empty workload name"));
            }
            let (kind_str, nth) = match rest.split_once('@') {
                None => (rest, 1u64),
                Some((k, n)) => {
                    let nth: u64 = n
                        .parse()
                        .map_err(|_| format!("fault rule `{raw}`: bad ordinal `{n}`"))?;
                    if nth == 0 {
                        return Err(format!("fault rule `{raw}`: ordinals are 1-based"));
                    }
                    (k, nth)
                }
            };
            let kind = match kind_str {
                "panic" => FaultKind::Panic,
                "corrupt" => FaultKind::Corrupt,
                s => match s.strip_prefix("stall=") {
                    Some(ms) => {
                        let ms = ms.strip_suffix("ms").unwrap_or(ms);
                        let ms: u64 = ms
                            .parse()
                            .map_err(|_| format!("fault rule `{raw}`: bad stall `{ms}`"))?;
                        FaultKind::Stall(Duration::from_millis(ms))
                    }
                    None => {
                        return Err(format!(
                            "fault rule `{raw}`: unknown kind `{kind_str}` \
                             (panic | corrupt | stall=MS)"
                        ))
                    }
                },
            };
            rules.push(FaultRule {
                workload: workload.to_string(),
                nth,
                kind,
            });
        }
        if rules.is_empty() {
            return Err("fault plan spec contains no rules".to_string());
        }
        Ok(FaultPlan::new(rules))
    }

    /// Record one invocation of `workload` and return the fault (if any)
    /// scheduled for this ordinal.
    pub(crate) fn on_invocation(&self, workload: &str) -> Option<FaultKind> {
        let mut hits = self.hits.lock().unwrap();
        let n = hits.entry(workload.to_string()).or_insert(0);
        *n += 1;
        let n = *n;
        self.rules
            .iter()
            .find(|r| r.workload == workload && r.nth == n)
            .map(|r| r.kind)
    }
}

/// Offset added to every counter by [`corrupt_report`] — an arbitrary but
/// fixed constant so corruption is deterministic and test-assertable.
pub(crate) const CORRUPTION_OFFSET: u64 = 0xBAD;

/// Deterministically corrupt a report's traffic counters in place: every
/// per-level write count and the flop counter gain [`CORRUPTION_OFFSET`].
/// The boundary counters are deliberately left alone — an *asymmetric*
/// corruption, like a real single-counter bug, which breaks the
/// per-level/boundary conservation invariants that
/// [`RunReport::validate`](crate::report::RunReport::validate) checks.
/// A note marks the report so the rig can tell an injected corruption
/// from a genuine counter bug.
pub(crate) fn corrupt_report(r: &mut RunReport) {
    for w in &mut r.writes_per_level {
        *w += CORRUPTION_OFFSET;
    }
    r.flops += CORRUPTION_OFFSET;
    r.notes
        .push("fault-injected: counters corrupted (+0xBAD)".to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BackendKind, Scale};

    #[test]
    fn parses_all_rule_forms() {
        let p = FaultPlan::parse("matmul-wa:panic@1,lu-wa:stall=2000ms,cg:corrupt@3").unwrap();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].kind, FaultKind::Panic);
        assert_eq!(p.rules[0].nth, 1);
        assert_eq!(
            p.rules[1].kind,
            FaultKind::Stall(Duration::from_millis(2000))
        );
        assert_eq!(p.rules[1].nth, 1);
        assert_eq!(p.rules[2].kind, FaultKind::Corrupt);
        assert_eq!(p.rules[2].nth, 3);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "matmul-wa",
            ":panic",
            "w:explode",
            "w:stall=abc",
            "w:panic@0",
            "w:panic@x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn fires_on_exactly_the_nth_invocation_per_workload() {
        let p = FaultPlan::parse("a:panic@2,b:corrupt@1").unwrap();
        assert_eq!(p.on_invocation("a"), None);
        assert_eq!(p.on_invocation("a"), Some(FaultKind::Panic));
        assert_eq!(p.on_invocation("a"), None);
        assert_eq!(p.on_invocation("b"), Some(FaultKind::Corrupt));
        assert_eq!(p.on_invocation("b"), None);
        assert_eq!(p.on_invocation("untargeted"), None);
        let hits = p.hits.lock().unwrap();
        assert_eq!((hits["a"], hits["untargeted"]), (3, 1));
    }

    #[test]
    fn corruption_is_deterministic_and_marked() {
        let mut r = RunReport::new("w", BackendKind::Explicit, Scale::Small);
        r.writes_per_level = vec![10, 20];
        r.flops = 5;
        corrupt_report(&mut r);
        assert_eq!(r.writes_per_level, vec![10 + 0xBAD, 20 + 0xBAD]);
        assert_eq!(r.flops, 5 + 0xBAD);
        assert!(r.notes.iter().any(|n| n.contains("fault-injected")));
    }
}
