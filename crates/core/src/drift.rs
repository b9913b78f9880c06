//! Controller-side drift detection over the digest stream.
//!
//! The paper trains the whitelist once and installs it forever, but
//! ROADMAP names online drift adaptation as an open item (pForest's
//! phase-aware retraining and Genos's incremental updates make the same
//! argument): as traffic shifts, the fraction of flow digests the forest
//! labels malicious drifts away from what it was when the installed
//! generation was validated — benign traffic starts falling outside the
//! whitelist (false-positive inflation) or the malicious mix changes.
//!
//! [`DriftDetector`] watches exactly the signal the controller already
//! receives for free — the per-digest malicious bit — and fires when the
//! rolling-window malicious fraction moves more than
//! [`DriftConfig::threshold`] away from a frozen **reference** fraction
//! captured right after (re)deployment. Firing starts a cooldown and
//! re-baselines once the cooldown drains — by then the window reflects
//! the settled new regime — so one regime change produces one retrain
//! trigger, not a trigger per digest.
//!
//! The detector is deliberately free of randomness and clocks: its state
//! is a fixed-size ring of label bits plus a few counters, so identical
//! digest streams produce identical trigger points on any backend, worker
//! count, or replay — the same determinism contract as the rest of the
//! pipeline.

use std::collections::VecDeque;

use iguard_telemetry::counter;

/// Tuning knobs of the [`DriftDetector`].
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// Rolling-window length, in digests.
    pub window: usize,
    /// Observations required before the reference fraction is frozen and
    /// detection arms (also the minimum fill before any verdict).
    pub min_samples: usize,
    /// Absolute malicious-fraction shift (vs. the reference) that fires.
    pub threshold: f64,
    /// Observations ignored after a fire before detection re-arms —
    /// covers the retrain + swap round-trip so one regime change cannot
    /// fire twice.
    pub cooldown: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self { window: 512, min_samples: 256, threshold: 0.15, cooldown: 512 }
    }
}

iguard_runtime::builder_setters! { DriftConfig =>
    /// Builder: rolling-window length in digests.
    with_window => window: usize,
    /// Builder: observations required before detection arms.
    with_min_samples => min_samples: usize,
    /// Builder: absolute malicious-fraction shift that fires.
    with_threshold => threshold: f64,
    /// Builder: post-fire cooldown in observations.
    with_cooldown => cooldown: u64,
}

/// Rolling-window shift detector over digest labels — see the module docs.
#[derive(Clone, Debug)]
pub struct DriftDetector {
    cfg: DriftConfig,
    ring: VecDeque<bool>,
    mal_in_window: usize,
    /// Malicious fraction frozen at arm time (and re-frozen at each fire).
    reference: Option<f64>,
    cooldown_left: u64,
    fired: u64,
}

impl DriftDetector {
    pub fn new(cfg: DriftConfig) -> Self {
        assert!(cfg.window >= 1, "drift window must hold at least one digest");
        assert!(cfg.min_samples >= 1, "need at least one sample before arming");
        assert!(cfg.threshold > 0.0, "a zero threshold would fire on noise");
        Self {
            ring: VecDeque::with_capacity(cfg.window),
            cfg,
            mal_in_window: 0,
            reference: None,
            cooldown_left: 0,
            fired: 0,
        }
    }

    /// Feeds one digest label; returns `true` when this observation fires
    /// the drift trigger (at most once per cooldown period).
    pub fn observe(&mut self, malicious: bool) -> bool {
        counter!("core.drift.observed").inc();
        if self.ring.len() == self.cfg.window {
            if self.ring.pop_front().expect("non-empty ring") {
                self.mal_in_window -= 1;
            }
        }
        self.ring.push_back(malicious);
        if malicious {
            self.mal_in_window += 1;
        }

        if self.ring.len() < self.cfg.min_samples.min(self.cfg.window) {
            return false;
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return false;
        }
        let frac = self.window_fraction();
        let Some(reference) = self.reference else {
            // First armed observation after deployment (or after a fire's
            // cooldown drained): freeze the baseline. With `cooldown >=
            // window` the ring fully reflects the settled regime by now,
            // not the mid-transition mix at fire time.
            self.reference = Some(frac);
            return false;
        };
        if (frac - reference).abs() > self.cfg.threshold {
            self.fired += 1;
            counter!("core.drift.fired").inc();
            self.reference = None;
            self.cooldown_left = self.cfg.cooldown;
            return true;
        }
        false
    }

    /// Malicious fraction of the current window (0 when empty).
    pub fn window_fraction(&self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        self.mal_in_window as f64 / self.ring.len() as f64
    }

    /// The frozen reference fraction, once armed.
    pub fn reference(&self) -> Option<f64> {
        self.reference
    }

    /// Drift triggers fired so far.
    pub fn fires(&self) -> u64 {
        self.fired
    }

    pub fn config(&self) -> &DriftConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DriftConfig {
        DriftConfig::default().with_window(100).with_min_samples(50).with_threshold(0.2)
    }

    #[test]
    fn stable_stream_never_fires() {
        let mut d = DriftDetector::new(cfg());
        for i in 0..10_000u32 {
            // Steady 10% malicious mix.
            assert!(!d.observe(i % 10 == 0));
        }
        assert_eq!(d.fires(), 0);
        let reference = d.reference().expect("armed");
        assert!((reference - 0.1).abs() < 0.05, "reference {reference} far from mix");
    }

    #[test]
    fn regime_change_fires_exactly_once() {
        let mut d = DriftDetector::new(cfg());
        for _ in 0..1_000 {
            d.observe(false);
        }
        // Shift to an all-malicious regime: one trigger, then cooldown.
        let fires: u32 = (0..1_000).map(|_| d.observe(true) as u32).sum();
        assert_eq!(fires, 1);
        assert_eq!(d.fires(), 1);
        // Reference re-froze at the new regime, so staying there is quiet.
        assert!(d.reference().expect("re-frozen") > 0.2);
    }

    #[test]
    fn refires_after_cooldown_on_second_shift() {
        let mut d = DriftDetector::new(cfg().with_cooldown(100));
        for _ in 0..500 {
            d.observe(false);
        }
        assert_eq!((0..500).map(|_| d.observe(true) as u32).sum::<u32>(), 1);
        // Second regime change, after the cooldown has drained.
        assert_eq!((0..500).map(|_| d.observe(false) as u32).sum::<u32>(), 1);
        assert_eq!(d.fires(), 2);
    }

    #[test]
    fn does_not_arm_before_min_samples() {
        let mut d = DriftDetector::new(cfg());
        for _ in 0..49 {
            assert!(!d.observe(true));
            assert!(d.reference().is_none());
        }
        d.observe(true);
        assert!(d.reference().is_some());
    }

    #[test]
    fn identical_streams_fire_at_identical_points() {
        let run = || {
            let mut d = DriftDetector::new(cfg());
            (0..2_000u32).map(|i| d.observe(i > 700 && i % 3 != 0)).collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }
}
