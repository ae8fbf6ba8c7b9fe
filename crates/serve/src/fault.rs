//! Deterministic fault injection for the serving engine — the chaos
//! harness's control surface.
//!
//! A [`FaultPlan`] names *ordinals* at which each fault point fires: the
//! N-th batched evaluation panics, the N-th store build panics, stalls or
//! is held until the test releases it,
//! the N-th TCP reply is dropped mid-connection. Every fault point keeps
//! its own atomic pass counter, so a plan fires the same *number* of faults
//! at the same *points in the request stream* on every run — which thread
//! happens to hit a given ordinal is scheduling-dependent, but the
//! invariants the chaos soak asserts (every request answered exactly once,
//! no stranded state, monotone metrics) are interleaving-independent.
//!
//! Plans are injected two ways:
//!
//! - **Tests** build one with [`FaultPlan::parse`] (or the setters) and hand
//!   it to [`crate::ServeConfig::fault_plan`].
//! - **Operators** set `CONCORDE_FAULT_PLAN` in the environment; the service
//!   parses it at startup. The syntax is `;`-separated `point@ordinals`
//!   entries: `panic_eval@3`, `panic_build@1,4`, `slow_build@2:50ms`
//!   (the suffix sets the stall), `drop_reply@5`.
//!
//! The default (empty) plan is free on the hot path: each hook is one
//! `Vec::is_empty` check, no atomics touched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One fault point: the 1-based ordinals it fires at, plus the pass counter.
#[derive(Debug, Default)]
struct FirePoint {
    at: Vec<u64>,
    passes: AtomicU64,
}

impl FirePoint {
    fn with(at: Vec<u64>) -> FirePoint {
        FirePoint {
            at,
            passes: AtomicU64::new(0),
        }
    }

    /// Counts one pass through the point; true iff this pass is a chosen
    /// ordinal. An empty ordinal list never counts — the disabled hook costs
    /// one branch.
    fn fires(&self) -> bool {
        if self.at.is_empty() {
            return false;
        }
        let n = self.passes.fetch_add(1, Ordering::Relaxed) + 1;
        self.at.contains(&n)
    }

    /// How many faults this point has fired so far.
    fn fired(&self) -> u64 {
        if self.at.is_empty() {
            return 0;
        }
        let seen = self.passes.load(Ordering::Relaxed);
        self.at.iter().filter(|&&n| n <= seen).count() as u64
    }
}

/// A deterministic fault-injection plan (see the module docs). The default
/// plan injects nothing.
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_eval: FirePoint,
    panic_build: FirePoint,
    slow_build: FirePoint,
    slow_build_delay: Duration,
    hold_build: FirePoint,
    hold_build_max: Duration,
    /// Set once by [`FaultPlan::release_held_builds`]; held builds wait on it.
    hold_released: Mutex<bool>,
    hold_cv: Condvar,
    drop_reply: FirePoint,
}

impl FaultPlan {
    /// True when no fault point is armed.
    pub fn is_empty(&self) -> bool {
        self.panic_eval.at.is_empty()
            && self.panic_build.at.is_empty()
            && self.slow_build.at.is_empty()
            && self.hold_build.at.is_empty()
            && self.drop_reply.at.is_empty()
    }

    /// Arms a panic at the given 1-based batched-evaluation ordinals.
    pub fn panic_eval_at(mut self, at: Vec<u64>) -> Self {
        self.panic_eval = FirePoint::with(at);
        self
    }

    /// Arms a panic at the given 1-based store-build ordinals.
    pub fn panic_build_at(mut self, at: Vec<u64>) -> Self {
        self.panic_build = FirePoint::with(at);
        self
    }

    /// Arms a stall of `delay` at the given 1-based store-build ordinals.
    pub fn slow_build_at(mut self, at: Vec<u64>, delay: Duration) -> Self {
        self.slow_build = FirePoint::with(at);
        self.slow_build_delay = delay;
        self
    }

    /// Arms a hold at the given 1-based store-build ordinals: the build
    /// parks until [`FaultPlan::release_held_builds`] (or `max` elapses, so
    /// a test that fails before releasing cannot hang its pool thread).
    /// Unlike [`FaultPlan::slow_build_at`], how long the build stays out is
    /// up to the caller, not a race against a fixed stall. Tests only; the
    /// `CONCORDE_FAULT_PLAN` syntax has no hold point.
    pub fn hold_build_at(mut self, at: Vec<u64>, max: Duration) -> Self {
        self.hold_build = FirePoint::with(at);
        self.hold_build_max = max;
        self
    }

    /// Lets every held build (and any later hold ordinal) proceed.
    pub fn release_held_builds(&self) {
        *self.hold_released.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.hold_cv.notify_all();
    }

    /// How many builds have reached a hold ordinal so far (held now or
    /// already released).
    pub fn held_builds(&self) -> u64 {
        self.hold_build.fired()
    }

    /// Arms a mid-connection drop at the given 1-based TCP-reply ordinals.
    pub fn drop_reply_at(mut self, at: Vec<u64>) -> Self {
        self.drop_reply = FirePoint::with(at);
        self
    }

    /// Hook inside the batched forward pass (under the worker's unwind
    /// guard): panics on a chosen ordinal.
    pub(crate) fn on_eval(&self) {
        if self.panic_eval.fires() {
            panic!("injected fault: eval panic");
        }
    }

    /// Hook inside a store build (under the build's unwind guard): holds,
    /// stalls and/or panics on chosen ordinals. One build ordinal drives
    /// every point, counted independently.
    pub(crate) fn on_build(&self) {
        if self.hold_build.fires() {
            let released = self.hold_released.lock().unwrap_or_else(|e| e.into_inner());
            let _ = self
                .hold_cv
                .wait_timeout_while(released, self.hold_build_max, |r| !*r);
        }
        if self.slow_build.fires() {
            std::thread::sleep(self.slow_build_delay);
        }
        if self.panic_build.fires() {
            panic!("injected fault: build panic");
        }
    }

    /// Hook before a TCP reply write: true means the server must drop the
    /// connection instead of writing (a mid-reply socket failure).
    pub(crate) fn on_reply(&self) -> bool {
        self.drop_reply.fires()
    }

    /// Faults fired so far, per point: `(evals, builds, stalls, drops)`.
    pub fn fired(&self) -> (u64, u64, u64, u64) {
        (
            self.panic_eval.fired(),
            self.panic_build.fired(),
            self.slow_build.fired(),
            self.drop_reply.fired(),
        )
    }

    /// Parses the `CONCORDE_FAULT_PLAN` syntax (see the module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (point, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("`{entry}`: expected point@ordinals"))?;
            let (ordinals, suffix) = match rest.split_once(':') {
                Some((o, s)) => (o, Some(s)),
                None => (rest, None),
            };
            let at: Vec<u64> = ordinals
                .split(',')
                .map(|n| {
                    n.trim()
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("`{n}`: ordinals are positive integers"))
                })
                .collect::<Result<_, _>>()?;
            match point.trim() {
                "panic_eval" => plan.panic_eval = FirePoint::with(at),
                "panic_build" => plan.panic_build = FirePoint::with(at),
                "slow_build" => {
                    plan.slow_build = FirePoint::with(at);
                    let ms = suffix
                        .unwrap_or("50ms")
                        .trim()
                        .strip_suffix("ms")
                        .and_then(|n| n.parse::<u64>().ok())
                        .ok_or_else(|| format!("`{entry}`: expected slow_build@N:MILLISms"))?;
                    plan.slow_build_delay = Duration::from_millis(ms);
                }
                "drop_reply" => plan.drop_reply = FirePoint::with(at),
                other => {
                    return Err(format!(
                        "`{other}`: unknown fault point \
                         (panic_eval | panic_build | slow_build | drop_reply)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires_and_counts_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for _ in 0..100 {
            plan.on_eval();
            plan.on_build();
            assert!(!plan.on_reply());
        }
        assert_eq!(plan.fired(), (0, 0, 0, 0));
    }

    #[test]
    fn fire_points_hit_exactly_their_ordinals() {
        let p = FirePoint::with(vec![2, 5]);
        let fired: Vec<bool> = (0..7).map(|_| p.fires()).collect();
        assert_eq!(fired, [false, true, false, false, true, false, false]);
        assert_eq!(p.fired(), 2);
    }

    #[test]
    fn parse_roundtrips_the_env_syntax() {
        let plan =
            FaultPlan::parse("panic_eval@3; panic_build@1,4; slow_build@2:75ms; drop_reply@6")
                .unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.panic_eval.at, [3]);
        assert_eq!(plan.panic_build.at, [1, 4]);
        assert_eq!(plan.slow_build.at, [2]);
        assert_eq!(plan.slow_build_delay, Duration::from_millis(75));
        assert_eq!(plan.drop_reply.at, [6]);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        // Errors: unknown point, missing `@`, bad ordinal, bad stall suffix.
        assert!(FaultPlan::parse("panic_everything@1").is_err());
        assert!(FaultPlan::parse("panic_eval").is_err());
        assert!(FaultPlan::parse("panic_eval@0").is_err());
        assert!(FaultPlan::parse("panic_eval@x").is_err());
        assert!(FaultPlan::parse("slow_build@1:fast").is_err());
    }

    #[test]
    fn held_builds_wait_for_release() {
        let plan = std::sync::Arc::new(
            FaultPlan::default().hold_build_at(vec![2], Duration::from_secs(60)),
        );
        assert!(!plan.is_empty());
        plan.on_build(); // ordinal 1: not held
        assert_eq!(plan.held_builds(), 0);
        let p = plan.clone();
        let build = std::thread::spawn(move || p.on_build());
        while plan.held_builds() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(!build.is_finished(), "the held build must wait for release");
        plan.release_held_builds();
        build.join().unwrap();
        assert_eq!(plan.held_builds(), 1);
    }

    #[test]
    fn drop_reply_fires_once_per_chosen_ordinal() {
        let plan = FaultPlan::parse("drop_reply@1,3").unwrap();
        let drops: Vec<bool> = (0..4).map(|_| plan.on_reply()).collect();
        assert_eq!(drops, [true, false, true, false]);
        assert_eq!(plan.fired().3, 2);
    }
}
