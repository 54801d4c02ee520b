//! The fleet scenario description (`FleetSpec`) and its JSON form.
//!
//! A spec is one self-contained what-if question: a cluster of
//! heterogeneous nodes (per-node MTBCE drawn from a field distribution,
//! with an optional faulty-DIMM hot-spot population), a job mix, a
//! placement policy, and a mitigation policy. Everything the fleet
//! engine does is a pure function of the spec — see the determinism
//! argument in DESIGN.md ("Fleet engine").
//!
//! Parsing uses the JSON request-field helpers of `cesim_core::service`:
//! unknown fields are rejected (a typo must not silently become a
//! default) and every error message names the offending field.

use cesim_core::service::{
    expect_object, field_f64, field_u64, parse_mode, parse_mtbce, reject_unknown,
};
use cesim_json::JsonValue;
use cesim_model::{LoggingMode, Span};
use cesim_workloads::AppId;

/// Default cap on fleet epochs when the spec does not set one.
pub const DEFAULT_MAX_EPOCHS: u32 = 64;

/// How per-node MTBCE values are drawn.
#[derive(Clone, Debug, PartialEq)]
pub enum MtbceDist {
    /// Uniform between two bounds (inclusive of the lower).
    Uniform {
        /// Smallest MTBCE.
        min: Span,
        /// Largest MTBCE.
        max: Span,
    },
    /// Log-normal around a median: `median * exp(sigma * z)` with
    /// `z ~ N(0,1)` — the heavy-tailed shape field studies report for
    /// per-DIMM CE rates.
    LogNormal {
        /// Median MTBCE (the distribution's 50th percentile).
        median: Span,
        /// Log-space standard deviation (0 = every node identical).
        sigma: f64,
    },
    /// An empirical bucket mix: each node picks one `(mtbce, weight)`
    /// bucket with probability proportional to its weight.
    Buckets(Vec<(Span, f64)>),
}

/// The simulated cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Initial logging mode of every node.
    pub mode: LoggingMode,
    /// Per-node MTBCE distribution.
    pub mtbce: MtbceDist,
    /// Fraction of nodes that are faulty-DIMM hot spots.
    pub hot_fraction: f64,
    /// MTBCE multiplier applied to hot nodes (`< 1` = more CEs).
    pub hot_scale: f64,
}

/// One homogeneous group of jobs in the mix.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Workload.
    pub app: AppId,
    /// Nodes each job needs (one rank per node, as in the paper).
    pub nodes: usize,
    /// How many identical jobs this entry contributes.
    pub count: u32,
    /// Workload step override per epoch slice (None = app default).
    pub steps: Option<usize>,
    /// Epoch slices the job must complete (its running time).
    pub epochs: u32,
}

/// Where queued jobs land on the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// First-fit onto the lowest-numbered free nodes.
    Packed,
    /// Evenly strided across the free nodes.
    Spread,
    /// A seeded shuffle of the free nodes.
    Random,
}

impl Placement {
    /// The spec-file name of this placement.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Packed => "packed",
            Placement::Spread => "spread",
            Placement::Random => "random",
        }
    }
}

/// Which mitigation policy reacts to observed CE streams.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicySpec {
    /// Never react (the paper's fixed-configuration setting).
    Static,
    /// Offline a node once its per-epoch CE count crosses a threshold,
    /// re-queuing any displaced job.
    ThresholdOffline {
        /// Observed CEs per epoch that trigger the offline.
        ce_per_epoch: u64,
        /// Cap on the fraction of the cluster the policy may remove.
        max_offline_fraction: f64,
    },
    /// Switch a node's logging mode once its per-epoch CE count crosses
    /// a threshold (e.g. drop a noisy node from firmware to hardware
    /// logging instead of losing the node).
    ModeSwitch {
        /// Observed CEs per epoch that trigger the switch.
        ce_per_epoch: u64,
        /// Mode to switch the node to.
        to: LoggingMode,
    },
}

impl PolicySpec {
    /// The spec-file name of this policy.
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Static => "static",
            PolicySpec::ThresholdOffline { .. } => "threshold_offline",
            PolicySpec::ModeSwitch { .. } => "mode_switch",
        }
    }
}

/// A complete fleet scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Base seed; every node draw and job replica derives from it via
    /// stable coordinates (`cesim_core::seed`).
    pub seed: u64,
    /// Hard cap on simulated epochs (jobs still queued or running when
    /// it is reached are reported as incomplete).
    pub max_epochs: u32,
    /// The cluster.
    pub cluster: ClusterSpec,
    /// The job mix.
    pub jobs: Vec<JobSpec>,
    /// Placement policy.
    pub placement: Placement,
    /// Mitigation policy.
    pub policy: PolicySpec,
}

impl FleetSpec {
    /// Total jobs the mix expands to.
    pub fn total_jobs(&self) -> usize {
        self.jobs.iter().map(|j| j.count as usize).sum()
    }
}

fn parse_mtbce_dist(v: &JsonValue) -> Result<MtbceDist, String> {
    let o = expect_object(v, "cluster.mtbce")?;
    let dist = o
        .get("dist")
        .ok_or_else(|| "cluster.mtbce: missing field \"dist\"".to_string())?
        .as_str()
        .ok_or_else(|| "cluster.mtbce.dist must be a string".to_string())?;
    match dist {
        "uniform" => {
            reject_unknown(o, "cluster.mtbce", &["dist", "min", "max"])?;
            let min = parse_mtbce(
                o.get("min")
                    .ok_or_else(|| "cluster.mtbce: uniform needs \"min\"".to_string())?,
                "cluster.mtbce.min",
            )?;
            let max = parse_mtbce(
                o.get("max")
                    .ok_or_else(|| "cluster.mtbce: uniform needs \"max\"".to_string())?,
                "cluster.mtbce.max",
            )?;
            if min > max {
                return Err("cluster.mtbce: min must not exceed max".into());
            }
            Ok(MtbceDist::Uniform { min, max })
        }
        "lognormal" => {
            reject_unknown(o, "cluster.mtbce", &["dist", "median", "sigma"])?;
            let median = parse_mtbce(
                o.get("median")
                    .ok_or_else(|| "cluster.mtbce: lognormal needs \"median\"".to_string())?,
                "cluster.mtbce.median",
            )?;
            let sigma = field_f64(o, "sigma", 0.5)?;
            if !sigma.is_finite() || sigma < 0.0 {
                return Err("cluster.mtbce.sigma must be non-negative".into());
            }
            Ok(MtbceDist::LogNormal { median, sigma })
        }
        "buckets" => {
            reject_unknown(o, "cluster.mtbce", &["dist", "buckets"])?;
            let arr = o
                .get("buckets")
                .ok_or_else(|| "cluster.mtbce: buckets needs \"buckets\"".to_string())?
                .as_array()
                .ok_or_else(|| "cluster.mtbce.buckets must be an array".to_string())?;
            if arr.is_empty() {
                return Err("cluster.mtbce.buckets must not be empty".into());
            }
            let mut buckets = Vec::with_capacity(arr.len());
            for (i, b) in arr.iter().enumerate() {
                let bo = expect_object(b, &format!("cluster.mtbce.buckets[{i}]"))?;
                reject_unknown(
                    bo,
                    &format!("cluster.mtbce.buckets[{i}]"),
                    &["mtbce", "weight"],
                )?;
                let mtbce = parse_mtbce(
                    bo.get("mtbce").ok_or_else(|| {
                        format!("cluster.mtbce.buckets[{i}]: missing field \"mtbce\"")
                    })?,
                    &format!("cluster.mtbce.buckets[{i}].mtbce"),
                )?;
                let weight = field_f64(bo, "weight", 1.0)?;
                if !weight.is_finite() || weight <= 0.0 {
                    return Err(format!(
                        "cluster.mtbce.buckets[{i}].weight must be positive"
                    ));
                }
                buckets.push((mtbce, weight));
            }
            Ok(MtbceDist::Buckets(buckets))
        }
        other => Err(format!(
            "cluster.mtbce.dist must be \"uniform\", \"lognormal\" or \"buckets\" (got {other:?})"
        )),
    }
}

fn parse_cluster(v: &JsonValue) -> Result<ClusterSpec, String> {
    let o = expect_object(v, "cluster")?;
    reject_unknown(
        o,
        "cluster",
        &["nodes", "mode", "mtbce", "hot_fraction", "hot_scale"],
    )?;
    let nodes = field_u64(o, "nodes", 16)? as usize;
    if nodes == 0 {
        return Err("cluster.nodes must be at least 1".into());
    }
    let mode = match o.get("mode") {
        Some(v) => parse_mode(v, "cluster.mode")?,
        None => LoggingMode::Software,
    };
    let mtbce = parse_mtbce_dist(
        o.get("mtbce")
            .ok_or_else(|| "cluster: missing field \"mtbce\"".to_string())?,
    )?;
    let hot_fraction = field_f64(o, "hot_fraction", 0.0)?;
    if !(0.0..=1.0).contains(&hot_fraction) {
        return Err("cluster.hot_fraction must be in 0..=1".into());
    }
    let hot_scale = field_f64(o, "hot_scale", 1.0)?;
    if !hot_scale.is_finite() || hot_scale <= 0.0 {
        return Err("cluster.hot_scale must be positive".into());
    }
    Ok(ClusterSpec {
        nodes,
        mode,
        mtbce,
        hot_fraction,
        hot_scale,
    })
}

fn parse_job(v: &JsonValue, i: usize) -> Result<JobSpec, String> {
    let what = format!("jobs[{i}]");
    let o = expect_object(v, &what)?;
    reject_unknown(o, &what, &["app", "nodes", "count", "steps", "epochs"])?;
    let app_v = o
        .get("app")
        .ok_or_else(|| format!("{what}: missing field \"app\""))?;
    let name = app_v
        .as_str()
        .ok_or_else(|| format!("{what}.app must be a string"))?;
    let app = AppId::parse(name).ok_or_else(|| {
        let names: Vec<&str> = AppId::all().into_iter().map(|a| a.name()).collect();
        format!(
            "{what}.app: unknown app {name:?} (expected one of: {})",
            names.join(", ")
        )
    })?;
    let nodes = field_u64(o, "nodes", 8)? as usize;
    if nodes == 0 {
        return Err(format!("{what}.nodes must be at least 1"));
    }
    let count = field_u64(o, "count", 1)? as u32;
    if count == 0 {
        return Err(format!("{what}.count must be at least 1"));
    }
    let steps = match o.get("steps") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&s| s >= 1)
                .ok_or_else(|| format!("{what}.steps must be a positive integer"))?
                as usize,
        ),
    };
    let epochs = field_u64(o, "epochs", 1)? as u32;
    if epochs == 0 {
        return Err(format!("{what}.epochs must be at least 1"));
    }
    Ok(JobSpec {
        app,
        nodes,
        count,
        steps,
        epochs,
    })
}

fn parse_placement(v: &JsonValue) -> Result<Placement, String> {
    let s = v
        .as_str()
        .ok_or_else(|| "placement must be a string".to_string())?;
    match s {
        "packed" => Ok(Placement::Packed),
        "spread" => Ok(Placement::Spread),
        "random" => Ok(Placement::Random),
        other => Err(format!(
            "placement must be \"packed\", \"spread\" or \"random\" (got {other:?})"
        )),
    }
}

fn parse_policy(v: &JsonValue) -> Result<PolicySpec, String> {
    let o = expect_object(v, "policy")?;
    let kind = o
        .get("kind")
        .ok_or_else(|| "policy: missing field \"kind\"".to_string())?
        .as_str()
        .ok_or_else(|| "policy.kind must be a string".to_string())?;
    match kind {
        "static" => {
            reject_unknown(o, "policy", &["kind"])?;
            Ok(PolicySpec::Static)
        }
        "threshold_offline" => {
            reject_unknown(o, "policy", &["kind", "ce_per_epoch", "max_offline_fraction"])?;
            let ce_per_epoch = field_u64(o, "ce_per_epoch", 1000)?;
            if ce_per_epoch == 0 {
                return Err("policy.ce_per_epoch must be at least 1".into());
            }
            let max_offline_fraction = field_f64(o, "max_offline_fraction", 0.25)?;
            if !(0.0..=1.0).contains(&max_offline_fraction) {
                return Err("policy.max_offline_fraction must be in 0..=1".into());
            }
            Ok(PolicySpec::ThresholdOffline {
                ce_per_epoch,
                max_offline_fraction,
            })
        }
        "mode_switch" => {
            reject_unknown(o, "policy", &["kind", "ce_per_epoch", "to_mode"])?;
            let ce_per_epoch = field_u64(o, "ce_per_epoch", 1000)?;
            if ce_per_epoch == 0 {
                return Err("policy.ce_per_epoch must be at least 1".into());
            }
            let to = match o.get("to_mode") {
                Some(v) => parse_mode(v, "policy.to_mode")?,
                None => LoggingMode::HardwareOnly,
            };
            Ok(PolicySpec::ModeSwitch { ce_per_epoch, to })
        }
        other => Err(format!(
            "policy.kind must be \"static\", \"threshold_offline\" or \"mode_switch\" (got {other:?})"
        )),
    }
}

impl FleetSpec {
    const KNOWN: &'static [&'static str] =
        &["seed", "epochs", "cluster", "jobs", "placement", "policy"];

    /// Parse and validate a fleet spec from its JSON form.
    pub fn from_json(v: &JsonValue) -> Result<FleetSpec, String> {
        let o = expect_object(v, "fleet spec")?;
        reject_unknown(o, "fleet spec", Self::KNOWN)?;
        let seed = field_u64(o, "seed", 0xF1EE7)?;
        let max_epochs = field_u64(o, "epochs", u64::from(DEFAULT_MAX_EPOCHS))? as u32;
        if max_epochs == 0 {
            return Err("epochs must be at least 1".into());
        }
        let cluster = parse_cluster(
            o.get("cluster")
                .ok_or_else(|| "fleet spec: missing field \"cluster\"".to_string())?,
        )?;
        let jobs_v = o
            .get("jobs")
            .ok_or_else(|| "fleet spec: missing field \"jobs\"".to_string())?
            .as_array()
            .ok_or_else(|| "jobs must be an array".to_string())?;
        if jobs_v.is_empty() {
            return Err("jobs must not be empty".into());
        }
        let jobs = jobs_v
            .iter()
            .enumerate()
            .map(|(i, v)| parse_job(v, i))
            .collect::<Result<Vec<_>, _>>()?;
        for (i, j) in jobs.iter().enumerate() {
            if j.nodes > cluster.nodes {
                return Err(format!(
                    "jobs[{i}] needs {} nodes but the cluster has {}",
                    j.nodes, cluster.nodes
                ));
            }
        }
        let placement = match o.get("placement") {
            Some(v) => parse_placement(v)?,
            None => Placement::Packed,
        };
        let policy = match o.get("policy") {
            Some(v) => parse_policy(v)?,
            None => PolicySpec::Static,
        };
        Ok(FleetSpec {
            seed,
            max_epochs,
            cluster,
            jobs,
            placement,
            policy,
        })
    }

    /// Parse a spec from JSON text (convenience for the CLI).
    pub fn parse(text: &str) -> Result<FleetSpec, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("fleet spec: {e}"))?;
        FleetSpec::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<FleetSpec, String> {
        FleetSpec::parse(text)
    }

    const MINIMAL: &str = r#"{
        "cluster": {"nodes": 4, "mtbce": {"dist": "uniform", "min": "5ms", "max": "20ms"}},
        "jobs": [{"app": "LULESH", "nodes": 2}]
    }"#;

    #[test]
    fn minimal_spec_fills_defaults() {
        let s = parse(MINIMAL).unwrap();
        assert_eq!(s.seed, 0xF1EE7);
        assert_eq!(s.max_epochs, DEFAULT_MAX_EPOCHS);
        assert_eq!(s.cluster.nodes, 4);
        assert_eq!(s.cluster.mode, LoggingMode::Software);
        assert_eq!(s.cluster.hot_fraction, 0.0);
        assert_eq!(s.placement, Placement::Packed);
        assert_eq!(s.policy, PolicySpec::Static);
        assert_eq!(s.total_jobs(), 1);
        assert_eq!(s.jobs[0].epochs, 1);
    }

    #[test]
    fn full_spec_round_trips_fields() {
        let s = parse(
            r#"{
            "seed": 7, "epochs": 12, "placement": "spread",
            "cluster": {
                "nodes": 32, "mode": "fw",
                "mtbce": {"dist": "lognormal", "median": "10ms", "sigma": 0.8},
                "hot_fraction": 0.1, "hot_scale": 0.2
            },
            "jobs": [
                {"app": "HPCG", "nodes": 8, "count": 3, "steps": 5, "epochs": 2},
                {"app": "LULESH", "nodes": 4}
            ],
            "policy": {"kind": "threshold_offline", "ce_per_epoch": 500, "max_offline_fraction": 0.5}
        }"#,
        )
        .unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.max_epochs, 12);
        assert_eq!(s.cluster.mode, LoggingMode::Firmware);
        assert_eq!(
            s.cluster.mtbce,
            MtbceDist::LogNormal {
                median: Span::from_ms(10),
                sigma: 0.8
            }
        );
        assert_eq!(s.total_jobs(), 4);
        assert_eq!(
            s.policy,
            PolicySpec::ThresholdOffline {
                ce_per_epoch: 500,
                max_offline_fraction: 0.5
            }
        );
        assert_eq!(s.policy.name(), "threshold_offline");
    }

    #[test]
    fn zero_mtbce_is_rejected_with_its_field() {
        for (mtbce, field) in [
            (
                r#"{"dist": "uniform", "min": "0s", "max": "20ms"}"#,
                "cluster.mtbce.min",
            ),
            (
                r#"{"dist": "uniform", "min": 0, "max": "20ms"}"#,
                "cluster.mtbce.min",
            ),
            (
                r#"{"dist": "lognormal", "median": "0.1ps"}"#,
                "cluster.mtbce.median",
            ),
            (
                r#"{"dist": "buckets", "buckets": [{"mtbce": "1h"}, {"mtbce": "0"}]}"#,
                "cluster.mtbce.buckets[1].mtbce",
            ),
        ] {
            let spec = format!(
                r#"{{"cluster": {{"nodes": 4, "mtbce": {mtbce}}}, "jobs": [{{"app": "LULESH", "nodes": 2}}]}}"#
            );
            let err = parse(&spec).unwrap_err();
            assert!(
                err.contains(field) && err.contains("positive"),
                "{mtbce}: {err}"
            );
        }
    }

    #[test]
    fn buckets_and_mode_switch_parse() {
        let s = parse(
            r#"{
            "cluster": {"nodes": 8, "mtbce": {"dist": "buckets", "buckets": [
                {"mtbce": "1h", "weight": 9.0}, {"mtbce": "10ms", "weight": 1.0}
            ]}},
            "jobs": [{"app": "miniFE", "nodes": 2}],
            "policy": {"kind": "mode_switch", "ce_per_epoch": 100, "to_mode": "hw"}
        }"#,
        )
        .unwrap();
        assert_eq!(
            s.cluster.mtbce,
            MtbceDist::Buckets(vec![(Span::from_secs(3600), 9.0), (Span::from_ms(10), 1.0)])
        );
        assert_eq!(
            s.policy,
            PolicySpec::ModeSwitch {
                ce_per_epoch: 100,
                to: LoggingMode::HardwareOnly
            }
        );
    }

    #[test]
    fn errors_name_the_offending_field() {
        for (body, needle) in [
            (r#"{"jobs": [{"app":"HPCG"}]}"#, "cluster"),
            (r#"[1,2]"#, "must be a JSON object"),
            (
                r#"{"cluster": {"nodes": 4, "mtbce": {"dist": "zipf"}}, "jobs": [{"app":"HPCG","nodes":2}]}"#,
                "zipf",
            ),
            (
                r#"{"cluster": {"nodes": 4, "mtbce": {"dist":"uniform","min":"5ms","max":"1ms"}}, "jobs": [{"app":"HPCG","nodes":2}]}"#,
                "min must not exceed max",
            ),
            (
                r#"{"cluster": {"nodes": 2, "mtbce": {"dist":"uniform","min":"1ms","max":"2ms"}}, "jobs": [{"app":"HPCG","nodes":4}]}"#,
                "needs 4 nodes",
            ),
            (
                r#"{"cluster": {"nodes": 4, "mtbce": {"dist":"uniform","min":"1ms","max":"2ms"}}, "jobs": [{"app":"nope","nodes":2}]}"#,
                "unknown app",
            ),
            (
                r#"{"cluster": {"nodes": 4, "mtbce": {"dist":"uniform","min":"1ms","max":"2ms"}}, "jobs": [{"app":"HPCG","nodes":2}], "polcy": {}}"#,
                "polcy",
            ),
            (
                r#"{"cluster": {"nodes": 4, "mtbce": {"dist":"uniform","min":"1ms","max":"2ms"}}, "jobs": [{"app":"HPCG","nodes":2}], "policy": {"kind":"threshold_offline","max_offline_fraction":7}}"#,
                "max_offline_fraction",
            ),
            (r#"{"cluster""#, "fleet spec:"),
        ] {
            let err = parse(body).unwrap_err();
            assert!(
                err.contains(needle),
                "error for {body} must mention {needle:?}, got: {err}"
            );
        }
    }
}
