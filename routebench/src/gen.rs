//! Seeded instance generation: netlist → global route → conflict graph,
//! plus the DSATUR upper bound and greedy-clique lower bound that bracket
//! each instance's minimum channel width.
//!
//! Every instance is derived from its netlist seed alone, through the
//! public `satroute-fpga` and `satroute-coloring` calls, so the same seed
//! always yields the same instance.

use std::fmt;
use std::ops::RangeInclusive;
use std::time::Instant;

use satroute_coloring::{dsatur_coloring, CspGraph};
use satroute_fpga::{
    ArchError, Architecture, GlobalRouter, Netlist, NetlistError, RouteError, RoutingProblem,
};

use crate::span::Spans;

/// Terminals per generated net.
pub const TERMINALS: RangeInclusive<usize> = 2..=4;

/// Pins per logic block (one per side).
const PINS_PER_BLOCK: usize = 4;

/// The size of one generated instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceSpec {
    /// Fabric width and height, in blocks.
    pub grid: (u16, u16),
    /// Number of multi-pin nets.
    pub nets: usize,
}

/// Why an instance could not be generated.
#[derive(Debug)]
pub enum GenError {
    /// The fabric cannot supply the worst-case pin demand of the netlist.
    PinSupply {
        /// `nets × max terminals per net`.
        needed: usize,
        /// `4 × blocks`.
        available: usize,
    },
    /// The fabric dimensions are invalid.
    Arch(ArchError),
    /// The netlist generator failed.
    Netlist(NetlistError),
    /// The global router failed.
    Route(RouteError),
    /// No instance the workload accepts turned up among this many draws.
    Exhausted {
        /// Candidates drawn.
        drawn: usize,
    },
    /// A pinned pool entry no longer generates the instance it was
    /// calibrated on: the generator, router or conflict graph changed.
    Stale {
        /// The entry's netlist seed.
        seed: u64,
        /// Fingerprint in the pool file.
        pinned: (usize, usize, u64),
        /// Fingerprint of the instance generated now.
        found: (usize, usize, u64),
    },
    /// A pool file pins no instance.
    EmptyPool {
        /// The pool file.
        file: &'static str,
    },
    /// A pool file line does not parse.
    PoolFile {
        /// The pool file.
        file: &'static str,
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::PinSupply { needed, available } => write!(
                f,
                "fabric too small: up to {needed} pins needed, {available} available"
            ),
            GenError::Arch(e) => write!(f, "fabric: {e}"),
            GenError::Netlist(e) => write!(f, "netlist: {e}"),
            GenError::Route(e) => write!(f, "global route: {e}"),
            GenError::Exhausted { drawn } => {
                write!(f, "no acceptable instance among {drawn} candidates")
            }
            GenError::Stale {
                seed,
                pinned,
                found,
            } => write!(
                f,
                "pool entry {seed} pins graph {pinned:?} but generates {found:?}; \
                 re-run the calibration to pin new instances"
            ),
            GenError::EmptyPool { file } => write!(f, "{file} pins no instance"),
            GenError::PoolFile { file, line } => write!(f, "{file}:{line}: bad pool entry"),
        }
    }
}

impl std::error::Error for GenError {}

impl InstanceSpec {
    /// Checks up front that the fabric has a pin for every terminal the
    /// netlist may ask for, so generation can never run out of pins
    /// part-way for some seeds only.
    pub fn check_pin_supply(&self) -> Result<(), GenError> {
        let needed = self.nets * TERMINALS.end();
        let available = usize::from(self.grid.0) * usize::from(self.grid.1) * PINS_PER_BLOCK;
        if needed > available {
            return Err(GenError::PinSupply { needed, available });
        }
        Ok(())
    }
}

/// One generated routing problem with its channel-width bounds.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Fabric, netlist and global routing.
    pub problem: RoutingProblem,
    /// The track-exclusivity graph of `problem`.
    pub graph: CspGraph,
    /// Colors used by DSATUR: a routable channel width.
    pub dsatur: u32,
    /// Size of a greedily grown clique: no width below it routes.
    pub clique: u32,
    /// Channel density (most distinct nets through one segment): another
    /// clique, so no width below it routes either.
    pub density: u32,
    /// The channel width this instance's requests ask for. [`generate`]
    /// sets the DSATUR bound; a pool entry pins its own.
    pub width: u32,
}

impl Instance {
    /// The best known lower bound on the channel width.
    pub fn lower_bound(&self) -> u32 {
        self.clique.max(self.density)
    }

    /// The conflict graph's vertex count, edge count and an FNV-1a hash of
    /// its edge list: equal fingerprints mean the same instance.
    pub fn fingerprint(&self) -> (usize, usize, u64) {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for (a, b) in self.graph.edges() {
            for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        (self.graph.num_vertices(), self.graph.num_edges(), hash)
    }
}

/// splitmix64: derives independent instance seeds from one workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates one instance, recording a span per layer call into `spans`.
pub fn generate(spec: InstanceSpec, seed: u64, spans: &mut Spans) -> Result<Instance, GenError> {
    spec.check_pin_supply()?;
    let arch = Architecture::new(spec.grid.0, spec.grid.1).map_err(GenError::Arch)?;

    let t = Instant::now();
    let netlist = Netlist::random(&arch, spec.nets, TERMINALS, seed).map_err(GenError::Netlist)?;
    spans.record("fpga.netlist", t);

    let t = Instant::now();
    let routing = GlobalRouter::new()
        .with_ripup_passes(0)
        .with_congestion_weight(0)
        .route(&arch, &netlist)
        .map_err(GenError::Route)?;
    spans.record("fpga.global_route", t);
    let problem = RoutingProblem::new(arch, netlist, routing);

    let t = Instant::now();
    let graph = problem.conflict_graph();
    spans.record("fpga.conflict_graph", t);
    spans.count("fpga.conflict_edges", graph.num_edges() as u64);

    let t = Instant::now();
    let dsatur = dsatur_coloring(&graph).max_color().map_or(1, |m| m + 1);
    spans.record("coloring.dsatur", t);

    let t = Instant::now();
    let clique = graph.greedy_clique().len() as u32;
    spans.record("coloring.clique", t);

    let t = Instant::now();
    let density = problem
        .global_routing()
        .max_segment_congestion(problem.arch()) as u32;
    spans.record("fpga.density", t);

    Ok(Instance {
        problem,
        graph,
        dsatur,
        clique,
        density,
        width: dsatur,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: InstanceSpec = InstanceSpec {
        grid: (5, 5),
        nets: 16,
    };

    fn edges(inst: &Instance) -> Vec<(u32, u32)> {
        inst.graph.edges().collect()
    }

    #[test]
    fn same_seed_gives_identical_instances() {
        let a = generate(SMALL, 7, &mut Spans::off()).expect("fits");
        let b = generate(SMALL, 7, &mut Spans::off()).expect("fits");
        assert_eq!(a.problem.netlist(), b.problem.netlist());
        assert_eq!(edges(&a), edges(&b));
        assert_eq!((a.dsatur, a.clique), (b.dsatur, b.clique));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_seeds_give_different_instances() {
        let a = generate(SMALL, 7, &mut Spans::off()).expect("fits");
        let b = generate(SMALL, 8, &mut Spans::off()).expect("fits");
        assert_ne!(a.problem.netlist(), b.problem.netlist());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn pin_supply_is_checked_before_generating() {
        // 10×5 blocks give 200 pins; 60 nets may ask for 240.
        let spec = InstanceSpec {
            grid: (10, 5),
            nets: 60,
        };
        for seed in 0..20 {
            assert!(matches!(
                generate(spec, seed, &mut Spans::off()),
                Err(GenError::PinSupply {
                    needed: 240,
                    available: 200
                })
            ));
        }
    }

    #[test]
    fn seed_streams_differ() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
