//! Monitor service configuration.

use advhunter_fingerprint::FingerprintConfig;
use advhunter_runtime::ExecOptions;

use crate::builder::MonitorBuildError;
use crate::drift::DriftConfig;

/// What the monitor does with a submission that arrives while the bounded
/// queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Reject the request immediately with
    /// [`SubmitError::Overloaded`](crate::SubmitError::Overloaded) and
    /// count it as shed. The right choice when the caller has its own
    /// retry or drop logic and must never stall.
    Shed,
    /// Block the submitting thread until a slot frees up (or the monitor
    /// closes). The right choice for replay/offline drivers that want
    /// every request processed.
    Block,
}

/// How the HPC anomaly verdict and the query-correlation verdict are
/// combined into the final `flagged` bit of a
/// [`MonitorVerdict`](crate::MonitorVerdict).
///
/// Both underlying bits are always reported on the verdict; the policy
/// only decides the fused headline. With the fingerprint stage disabled
/// the query-correlation bit is always `false`, so [`Or`](Self::Or) (the
/// default) degrades exactly to the HPC-only behaviour of earlier
/// releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionPolicy {
    /// Flag on the HPC anomaly verdict alone (ignore query correlation).
    HpcOnly,
    /// Flag on query correlation alone (ignore the HPC verdict).
    FingerprintOnly,
    /// Flag when *either* signal fires. Highest recall: per-query HPC
    /// anomalies and cross-query attack campaigns are both caught.
    Or,
    /// Flag only when *both* signals fire. Lowest false-positive rate:
    /// a benign near-duplicate (resubmitted image) or an isolated HPC
    /// outlier alone does not flag.
    And,
}

impl FusionPolicy {
    /// Applies the policy to the two signal bits.
    #[must_use]
    pub fn fuse(self, hpc_anomalous: bool, query_correlated: bool) -> bool {
        match self {
            Self::HpcOnly => hpc_anomalous,
            Self::FingerprintOnly => query_correlated,
            Self::Or => hpc_anomalous || query_correlated,
            Self::And => hpc_anomalous && query_correlated,
        }
    }

    /// The policy's CLI/display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::HpcOnly => "hpc",
            Self::FingerprintOnly => "fingerprint",
            Self::Or => "or",
            Self::And => "and",
        }
    }
}

/// Configuration of a [`Monitor`](crate::Monitor), assembled by
/// [`MonitorBuilder`](crate::MonitorBuilder).
///
/// The `exec` field carries the determinism contract: request `i` (ids are
/// assigned in admission order) draws its measurement noise from the
/// stream seeded by `derive_seed(exec.seed, i)`, so the verdict stream is
/// bit-identical for every `exec.parallelism` and every way of batching
/// the submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MonitorConfig {
    /// Capacity of the bounded submission queue.
    pub queue_capacity: usize,
    /// Maximum number of queued requests coalesced into one measurement
    /// micro-batch.
    pub micro_batch: usize,
    /// What to do with submissions while the queue is full.
    pub overload: OverloadPolicy,
    /// Seed and worker count for the measurement fan-out.
    pub exec: ExecOptions,
    /// The query-fingerprint defense stage. Disabled by default
    /// ([`FingerprintConfig::disabled`]); enabling it gives every verdict
    /// a query-correlation bit fused per [`MonitorConfig::fusion`].
    pub fingerprint: FingerprintConfig,
    /// How HPC anomaly and query correlation combine into `flagged`.
    pub fusion: FusionPolicy,
    /// The clean-NLL drift test driving automatic recalibration. `None`
    /// (the default) disables drift tracking entirely.
    pub drift: Option<DriftConfig>,
}

impl MonitorConfig {
    /// A configuration with the given execution options and the default
    /// queue shape (capacity 128, micro-batches of 16, blocking overload
    /// policy).
    pub fn new(exec: ExecOptions) -> Self {
        Self {
            queue_capacity: 128,
            micro_batch: 16,
            overload: OverloadPolicy::Block,
            exec,
            fingerprint: FingerprintConfig::disabled(),
            fusion: FusionPolicy::Or,
            drift: None,
        }
    }

    /// Checks the configuration for nonsense values.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorBuildError`] when the queue capacity or the
    /// micro-batch ceiling is zero, or when an enabled fingerprint stage
    /// or drift test is misconfigured.
    pub fn validate(&self) -> Result<(), MonitorBuildError> {
        if self.queue_capacity == 0 {
            return Err(MonitorBuildError::ZeroQueueCapacity);
        }
        if self.micro_batch == 0 {
            return Err(MonitorBuildError::ZeroMicroBatch);
        }
        self.fingerprint
            .validate()
            .map_err(MonitorBuildError::Fingerprint)?;
        if let Some(drift) = &self.drift {
            drift.validate().map_err(MonitorBuildError::Drift)?;
        }
        Ok(())
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self::new(ExecOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriftConfigError;
    use advhunter_fingerprint::FingerprintConfigError;

    #[test]
    fn fields_compose_and_validate() {
        let mut cfg = MonitorConfig::new(ExecOptions::sequential(7));
        cfg.queue_capacity = 4;
        cfg.micro_batch = 2;
        cfg.overload = OverloadPolicy::Shed;
        assert_eq!(cfg.exec.seed, 7);
        assert!(cfg.validate().is_ok());
        let mut bad = cfg;
        bad.queue_capacity = 0;
        assert!(matches!(
            bad.validate(),
            Err(MonitorBuildError::ZeroQueueCapacity)
        ));
        let mut bad = cfg;
        bad.micro_batch = 0;
        assert!(matches!(
            bad.validate(),
            Err(MonitorBuildError::ZeroMicroBatch)
        ));
    }

    #[test]
    fn fingerprint_knobs_are_validated_when_enabled() {
        let cfg = MonitorConfig::default();
        assert!(!cfg.fingerprint.is_enabled(), "defense is opt-in");
        assert_eq!(cfg.fusion, FusionPolicy::Or);
        assert!(cfg.validate().is_ok());
        let mut enabled = cfg;
        enabled.fingerprint = FingerprintConfig::default();
        assert!(enabled.validate().is_ok());
        let mut bad = cfg;
        bad.fingerprint = FingerprintConfig::default();
        bad.fingerprint.match_threshold = 2.0;
        assert!(matches!(
            bad.validate(),
            Err(MonitorBuildError::Fingerprint(
                FingerprintConfigError::BadMatchThreshold
            ))
        ));
    }

    #[test]
    fn drift_knobs_are_validated_when_enabled() {
        let mut cfg = MonitorConfig::default();
        assert!(cfg.drift.is_none(), "drift tracking is opt-in");
        cfg.drift = Some(DriftConfig::default());
        assert!(cfg.validate().is_ok());
        cfg.drift = Some(DriftConfig {
            window: 0,
            ..DriftConfig::default()
        });
        assert!(matches!(
            cfg.validate(),
            Err(MonitorBuildError::Drift(DriftConfigError::ZeroWindow))
        ));
    }

    #[test]
    fn fusion_policies_combine_the_two_bits() {
        for (policy, table) in [
            (FusionPolicy::HpcOnly, [false, false, true, true]),
            (FusionPolicy::FingerprintOnly, [false, true, false, true]),
            (FusionPolicy::Or, [false, true, true, true]),
            (FusionPolicy::And, [false, false, false, true]),
        ] {
            let inputs = [(false, false), (false, true), (true, false), (true, true)];
            for ((hpc, qc), expected) in inputs.into_iter().zip(table) {
                assert_eq!(policy.fuse(hpc, qc), expected, "{policy:?} {hpc} {qc}");
            }
        }
    }
}
