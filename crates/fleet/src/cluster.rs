//! Deterministic cluster materialization.
//!
//! Every node's MTBCE (and its hot-spot status) is a pure function of
//! `(spec seed, node id)`: node `i` draws from
//! `Rng64::new(mix(mix(seed, fnv1a("fleet/node")), i))`, so the cluster
//! is byte-identical no matter how many worker threads later run jobs —
//! the same coordinate-seeding discipline as `cesim_core::seed`.

use crate::spec::{ClusterSpec, MtbceDist};
use cesim_core::seed::{fnv1a, mix};
use cesim_model::rng::Rng64;
use cesim_model::{LoggingMode, Span};

/// One cluster node's state as the fleet run evolves.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node id (index into the cluster).
    pub id: usize,
    /// Drawn mean time between CEs (already hot-scaled if `hot`).
    pub mtbce: Span,
    /// Current logging mode (policies may change it between epochs).
    pub mode: LoggingMode,
    /// Mode the node started with.
    pub initial_mode: LoggingMode,
    /// Whether the node drew into the faulty-DIMM hot-spot population.
    pub hot: bool,
    /// Whether a policy has taken the node out of service.
    pub offline: bool,
    /// Epoch the node was offlined, if it was.
    pub offline_epoch: Option<u32>,
    /// CEs observed on this node across the whole run.
    pub ce_total: u64,
    /// CEs observed on this node during the most recent epoch.
    pub ce_last_epoch: u64,
    /// Epochs this node spent hosting a job.
    pub busy_epochs: u32,
}

impl Node {
    /// Per-rank CE utilization a job rank placed here would see.
    pub fn utilization(&self) -> f64 {
        self.mode.per_event_cost().as_secs_f64() / self.mtbce.as_secs_f64()
    }
}

/// Smallest MTBCE a draw can produce — a floor keeps a pathological
/// lognormal tail from producing a zero-width arrival process.
const MTBCE_FLOOR: Span = Span::from_ns(1);

fn draw_mtbce(dist: &MtbceDist, rng: &mut Rng64) -> Span {
    let drawn = match dist {
        MtbceDist::Uniform { min, max } => {
            Span::from_secs_f64(rng.uniform_f64(min.as_secs_f64(), max.as_secs_f64()))
        }
        MtbceDist::LogNormal { median, sigma } => {
            // Box–Muller on open-interval uniforms (ln(0) is unreachable).
            let u1 = rng.next_f64_open();
            let u2 = rng.next_f64_open();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            // A large sigma overflows the draw to infinity; it saturates
            // at the longest span, as any finite draw past it already does.
            let secs = median.as_secs_f64() * (sigma * z).exp();
            Span::from_secs_f64(secs.min(f64::MAX))
        }
        MtbceDist::Buckets(buckets) => {
            let total: f64 = buckets.iter().map(|(_, w)| w).sum();
            let mut pick = rng.next_f64() * total;
            let mut chosen = buckets[buckets.len() - 1].0;
            for (mtbce, w) in buckets {
                if pick < *w {
                    chosen = *mtbce;
                    break;
                }
                pick -= w;
            }
            chosen
        }
    };
    drawn.max(MTBCE_FLOOR)
}

/// Materialize the cluster: one deterministic draw per node.
pub fn build_cluster(spec: &ClusterSpec, seed: u64) -> Vec<Node> {
    let domain = mix(seed, fnv1a(b"fleet/node"));
    (0..spec.nodes)
        .map(|id| {
            let mut rng = Rng64::new(mix(domain, id as u64));
            let mut mtbce = draw_mtbce(&spec.mtbce, &mut rng);
            let hot = rng.next_f64() < spec.hot_fraction;
            if hot {
                mtbce = mtbce.mul_f64(spec.hot_scale).max(MTBCE_FLOOR);
            }
            Node {
                id,
                mtbce,
                mode: spec.mode,
                initial_mode: spec.mode,
                hot,
                offline: false,
                offline_epoch: None,
                ce_total: 0,
                ce_last_epoch: 0,
                busy_epochs: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_spec(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            mode: LoggingMode::Software,
            mtbce: MtbceDist::Uniform {
                min: Span::from_ms(5),
                max: Span::from_ms(20),
            },
            hot_fraction: 0.0,
            hot_scale: 1.0,
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let spec = uniform_spec(64);
        let a: Vec<Span> = build_cluster(&spec, 7).iter().map(|n| n.mtbce).collect();
        let b: Vec<Span> = build_cluster(&spec, 7).iter().map(|n| n.mtbce).collect();
        let c: Vec<Span> = build_cluster(&spec, 8).iter().map(|n| n.mtbce).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_draws_stay_in_bounds() {
        let spec = uniform_spec(256);
        for n in build_cluster(&spec, 1) {
            assert!(n.mtbce >= Span::from_ms(5) && n.mtbce <= Span::from_ms(20));
            assert!(!n.hot);
        }
    }

    #[test]
    fn node_draw_independent_of_cluster_size() {
        // Node i's draw is a function of (seed, i) alone: growing the
        // cluster must not reshuffle existing nodes.
        let small = build_cluster(&uniform_spec(8), 3);
        let large = build_cluster(&uniform_spec(32), 3);
        for (s, l) in small.iter().zip(&large) {
            assert_eq!(s.mtbce, l.mtbce);
        }
    }

    #[test]
    fn hot_fraction_scales_a_subset() {
        let spec = ClusterSpec {
            hot_fraction: 0.25,
            hot_scale: 0.1,
            ..uniform_spec(512)
        };
        let nodes = build_cluster(&spec, 11);
        let hot = nodes.iter().filter(|n| n.hot).count();
        assert!(
            (64..192).contains(&hot),
            "~25% of 512 nodes should be hot, got {hot}"
        );
        // Hot nodes sit strictly below the cold draw floor once scaled.
        for n in nodes.iter().filter(|n| n.hot) {
            assert!(n.mtbce < Span::from_ms(5), "hot node at {:?}", n.mtbce);
        }
    }

    #[test]
    fn lognormal_median_is_roughly_respected() {
        let spec = ClusterSpec {
            mtbce: MtbceDist::LogNormal {
                median: Span::from_ms(10),
                sigma: 0.5,
            },
            ..uniform_spec(1024)
        };
        let mut draws: Vec<f64> = build_cluster(&spec, 5)
            .iter()
            .map(|n| n.mtbce.as_secs_f64())
            .collect();
        draws.sort_by(f64::total_cmp);
        let median = draws[draws.len() / 2];
        assert!(
            (0.008..0.012).contains(&median),
            "sample median {median} should be near 10ms"
        );
    }

    /// A sigma so large that `exp(sigma * z)` overflows saturates the
    /// draw instead of panicking; the lower tail still hits the floor.
    #[test]
    fn huge_lognormal_sigma_saturates() {
        let spec = ClusterSpec {
            mtbce: MtbceDist::LogNormal {
                median: Span::from_secs(600),
                sigma: 1e308,
            },
            ..uniform_spec(256)
        };
        let nodes = build_cluster(&spec, 3);
        for extreme in [Span::MAX, MTBCE_FLOOR] {
            assert!(nodes.iter().any(|n| n.mtbce == extreme), "{extreme:?}");
        }
    }

    #[test]
    fn bucket_weights_are_respected() {
        let spec = ClusterSpec {
            mtbce: MtbceDist::Buckets(vec![(Span::from_secs(3600), 9.0), (Span::from_ms(10), 1.0)]),
            ..uniform_spec(1000)
        };
        let nodes = build_cluster(&spec, 2);
        let noisy = nodes
            .iter()
            .filter(|n| n.mtbce == Span::from_ms(10))
            .count();
        let quiet = nodes
            .iter()
            .filter(|n| n.mtbce == Span::from_secs(3600))
            .count();
        assert_eq!(noisy + quiet, 1000, "every draw hits a bucket exactly");
        assert!((50..200).contains(&noisy), "~10% noisy, got {noisy}");
    }
}
