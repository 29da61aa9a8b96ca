//! Packet-loss processes for simulated links.
//!
//! The paper's protocols are designed around the *burstiness* of Internet
//! loss ("the challenge is to bypass the window of correlation for loss
//! within the allotted time", §IV-A), so in addition to independent Bernoulli
//! loss this module provides a Gilbert–Elliott two-state model whose bad
//! state produces correlated loss bursts.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Configuration for a link's loss process.
#[derive(Debug, Clone, PartialEq)]
pub enum LossConfig {
    /// No loss at all.
    Perfect,
    /// Each packet is dropped independently with probability `p`.
    Bernoulli {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott model producing bursty loss.
    ///
    /// The chain dwells in a *good* state (loss probability `loss_good`,
    /// typically ~0) and a *bad* state (loss probability `loss_bad`, often
    /// near 1). Dwell times are exponential with the given means, so the
    /// average burst length is `mean_bad` and the long-run loss rate is
    /// `(mean_bad * loss_bad + mean_good * loss_good) / (mean_good + mean_bad)`.
    GilbertElliott {
        /// Mean dwell time in the good state.
        mean_good: SimDuration,
        /// Mean dwell time in the bad state (the burst length).
        mean_bad: SimDuration,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossConfig {
    /// Convenience constructor for a bursty model with a lossless good state
    /// and a fully lossy bad state.
    #[must_use]
    pub fn bursts(mean_good: SimDuration, mean_bad: SimDuration) -> Self {
        LossConfig::GilbertElliott {
            mean_good,
            mean_bad,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// The long-run average loss rate this configuration produces.
    #[must_use]
    pub fn steady_state_loss(&self) -> f64 {
        match *self {
            LossConfig::Perfect => 0.0,
            LossConfig::Bernoulli { p } => p,
            LossConfig::GilbertElliott {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad,
            } => {
                let g = mean_good.as_secs_f64();
                let b = mean_bad.as_secs_f64();
                if g + b == 0.0 {
                    0.0
                } else {
                    (b * loss_bad + g * loss_good) / (g + b)
                }
            }
        }
    }

    /// Validates probabilities and dwell times.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let check_p = |name: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{name} must be in [0,1], got {p}"))
            }
        };
        match *self {
            LossConfig::Perfect => Ok(()),
            LossConfig::Bernoulli { p } => check_p("p", p),
            LossConfig::GilbertElliott {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad,
            } => {
                check_p("loss_good", loss_good)?;
                check_p("loss_bad", loss_bad)?;
                if mean_good.is_zero() && mean_bad.is_zero() {
                    return Err("at least one dwell time must be positive".into());
                }
                Ok(())
            }
        }
    }
}

/// The live state of a loss process on one link direction.
#[derive(Debug, Clone)]
pub struct LossProcess {
    config: LossConfig,
    state: LossState,
}

impl LossProcess {
    /// Creates a loss process from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`LossConfig::validate`]).
    #[must_use]
    pub fn new(config: LossConfig) -> Self {
        LossProcess {
            state: LossState::new(&config),
            config,
        }
    }

    /// The configuration this process was built from.
    #[must_use]
    pub fn config(&self) -> &LossConfig {
        &self.config
    }

    /// Decides whether a packet offered at `now` is dropped.
    pub fn drops(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        self.state.drops(&self.config, now, rng)
    }
}

/// A loss process without its configuration, for a holder that keeps the
/// configuration anyway (a pipe has it in its `PipeConfig`): the
/// Gilbert–Elliott chain's position, and nothing for the other models.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LossState {
    /// Gilbert–Elliott state: `true` = bad (bursting).
    in_bad: bool,
    /// When the current GE state expires.
    state_until: SimTime,
}

impl LossState {
    /// The state a process on `config` starts in.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`LossConfig::validate`]).
    #[must_use]
    pub(crate) fn new(config: &LossConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid loss config: {e}");
        }
        // `state_until` starts expired with `in_bad = true`, so the first
        // advance flips into the good state and draws a good-state dwell.
        LossState {
            in_bad: true,
            state_until: SimTime::ZERO,
        }
    }

    /// Decides whether a packet offered at `now` to a process on `config`
    /// (the one this state was made for) is dropped.
    pub(crate) fn drops(&mut self, config: &LossConfig, now: SimTime, rng: &mut SimRng) -> bool {
        match *config {
            LossConfig::Perfect => false,
            LossConfig::Bernoulli { p } => rng.chance(p),
            LossConfig::GilbertElliott {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad,
            } => {
                // Advance the two-state chain continuously to `now`: on each
                // expiry flip the state and draw the new state's dwell time.
                while self.state_until <= now {
                    self.in_bad = !self.in_bad;
                    let mean = if self.in_bad { mean_bad } else { mean_good };
                    // Degenerate dwell of zero: flip immediately but bound the loop.
                    let dwell = if mean.is_zero() {
                        SimDuration::from_nanos(1)
                    } else {
                        SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()))
                            .max(SimDuration::from_nanos(1))
                    };
                    self.state_until += dwell;
                }
                let p = if self.in_bad { loss_bad } else { loss_good };
                rng.chance(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_drops(config: LossConfig, n: u64, gap: SimDuration, seed: u64) -> u64 {
        let mut proc = LossProcess::new(config);
        let mut rng = SimRng::seed(seed);
        let mut t = SimTime::ZERO;
        let mut drops = 0;
        for _ in 0..n {
            if proc.drops(t, &mut rng) {
                drops += 1;
            }
            t += gap;
        }
        drops
    }

    #[test]
    fn perfect_never_drops() {
        assert_eq!(
            count_drops(LossConfig::Perfect, 10_000, SimDuration::from_millis(1), 1),
            0
        );
    }

    #[test]
    fn bernoulli_rate_is_calibrated() {
        let drops = count_drops(
            LossConfig::Bernoulli { p: 0.02 },
            100_000,
            SimDuration::from_millis(1),
            2,
        );
        let rate = drops as f64 / 100_000.0;
        assert!((rate - 0.02).abs() < 0.003, "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_long_run_rate_matches_steady_state() {
        let cfg = LossConfig::bursts(SimDuration::from_millis(990), SimDuration::from_millis(10));
        let expected = cfg.steady_state_loss();
        assert!((expected - 0.01).abs() < 1e-9);
        let drops = count_drops(cfg, 2_000_000, SimDuration::from_micros(100), 3);
        let rate = drops as f64 / 2_000_000.0;
        assert!(
            (rate - expected).abs() < 0.004,
            "rate={rate} expected={expected}"
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare the distribution of consecutive-loss runs: GE with 10ms
        // bursts at 1ms packet spacing should produce much longer runs than
        // Bernoulli at the same average rate.
        let run_lengths = |cfg: LossConfig| -> f64 {
            let mut proc = LossProcess::new(cfg);
            let mut rng = SimRng::seed(4);
            let mut t = SimTime::ZERO;
            let mut runs = Vec::new();
            let mut current = 0u64;
            for _ in 0..500_000 {
                if proc.drops(t, &mut rng) {
                    current += 1;
                } else if current > 0 {
                    runs.push(current);
                    current = 0;
                }
                t += SimDuration::from_millis(1);
            }
            if runs.is_empty() {
                0.0
            } else {
                runs.iter().sum::<u64>() as f64 / runs.len() as f64
            }
        };
        let ge = run_lengths(LossConfig::bursts(
            SimDuration::from_millis(990),
            SimDuration::from_millis(10),
        ));
        let bern = run_lengths(LossConfig::Bernoulli { p: 0.01 });
        assert!(ge > 3.0 * bern, "ge mean run {ge} vs bernoulli {bern}");
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        assert!(LossConfig::Bernoulli { p: 1.5 }.validate().is_err());
        assert!(LossConfig::Bernoulli { p: -0.1 }.validate().is_err());
        assert!(LossConfig::GilbertElliott {
            mean_good: SimDuration::ZERO,
            mean_bad: SimDuration::ZERO,
            loss_good: 0.0,
            loss_bad: 1.0
        }
        .validate()
        .is_err());
        assert!(LossConfig::Bernoulli { p: 0.5 }.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid loss config")]
    fn new_panics_on_invalid_config() {
        let _ = LossProcess::new(LossConfig::Bernoulli { p: 2.0 });
    }
}
