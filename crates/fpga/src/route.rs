//! Congestion-negotiating global router.
//!
//! In the paper, global routings come from the SEGA-1.1 distribution; here
//! they are produced by a maze router of the same family: every 2-pin subnet
//! gets a shortest path through the channel-segment graph, with segment
//! costs that grow with present congestion, followed by rip-up-and-reroute
//! refinement passes. The router is deterministic.
//!
//! # Search cost
//!
//! One [`GlobalRouter::route`] call builds the segment adjacency once, in
//! [`Architecture::neighbors`] order, and runs every subnet's Dijkstra
//! search on one reused state: distances, predecessors, the list of
//! segments the last search touched (only those are reset) and the
//! priority queue, a radix heap. The queue pops in (distance, segment
//! index) order, a total order, so each search — and therefore every
//! path — is the one a binary heap over fresh state would give. Costs
//! saturate at `u64::MAX` instead of overflowing, so any congestion
//! weight routes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use crate::{decompose, Architecture, DecompositionStyle, NetId, Netlist, Segment, Subnet};

/// The global route of one 2-pin subnet: the ordered channel segments it
/// passes through, from the source pin's connection block to the sink's.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubnetRoute {
    /// The routed subnet.
    pub subnet: Subnet,
    /// The segments traversed, in order. Never empty; consecutive segments
    /// are switch-block adjacent.
    pub path: Vec<Segment>,
}

/// A complete global routing: one [`SubnetRoute`] per 2-pin subnet.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GlobalRouting {
    routes: Vec<SubnetRoute>,
}

impl GlobalRouting {
    /// Creates a global routing from per-subnet routes.
    pub fn new(routes: Vec<SubnetRoute>) -> Self {
        GlobalRouting { routes }
    }

    /// The per-subnet routes.
    pub fn routes(&self) -> &[SubnetRoute] {
        &self.routes
    }

    /// Number of routed subnets.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Returns `true` if no subnets are routed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Checks structural validity against a fabric: every path is non-empty,
    /// starts at the source pin's segment, ends at the sink pin's segment,
    /// and moves only between switch-block-adjacent segments.
    ///
    /// # Errors
    ///
    /// Returns the first [`RouteError`] found.
    pub fn validate(&self, arch: &Architecture) -> Result<(), RouteError> {
        for route in &self.routes {
            let path = &route.path;
            if path.is_empty() {
                return Err(RouteError::EmptyPath(route.subnet));
            }
            let src = arch.pin_segment(
                route.subnet.from.x,
                route.subnet.from.y,
                route.subnet.from.side,
            );
            let dst = arch.pin_segment(route.subnet.to.x, route.subnet.to.y, route.subnet.to.side);
            if path[0] != src || *path.last().expect("non-empty") != dst {
                return Err(RouteError::EndpointMismatch(route.subnet));
            }
            for w in path.windows(2) {
                if !arch.neighbors(w[0]).contains(&w[1]) {
                    return Err(RouteError::Disconnected(route.subnet));
                }
            }
        }
        Ok(())
    }

    /// Maximum number of *distinct nets* passing through any one segment —
    /// a lower bound on the channel width required by this global routing.
    pub fn max_segment_congestion(&self, arch: &Architecture) -> usize {
        // Visiting the routes net by net lets a per-segment "last net
        // counted" stamp count each net once, whatever the route order.
        let mut by_net: Vec<&SubnetRoute> = self.routes.iter().collect();
        by_net.sort_by_key(|r| r.subnet.net);
        let mut last_net: Vec<Option<NetId>> = vec![None; arch.num_segments()];
        let mut nets: Vec<usize> = vec![0; arch.num_segments()];
        for route in by_net {
            let net = Some(route.subnet.net);
            for &seg in &route.path {
                let idx = arch.segment_index(seg);
                if last_net[idx] != net {
                    last_net[idx] = net;
                    nets[idx] += 1;
                }
            }
        }
        nets.into_iter().max().unwrap_or(0)
    }
}

/// Errors produced by routing or validating routes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// A subnet has an empty path.
    EmptyPath(Subnet),
    /// A path does not start/end at the subnet's pins.
    EndpointMismatch(Subnet),
    /// Consecutive path segments are not switch-block adjacent.
    Disconnected(Subnet),
    /// The maze search found no path (cannot happen on a connected fabric;
    /// kept for API honesty).
    NoPath(Subnet),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::EmptyPath(s) => write!(f, "subnet {s} has an empty path"),
            RouteError::EndpointMismatch(s) => {
                write!(f, "subnet {s} path does not connect its pins")
            }
            RouteError::Disconnected(s) => {
                write!(f, "subnet {s} path jumps between non-adjacent segments")
            }
            RouteError::NoPath(s) => write!(f, "no path found for subnet {s}"),
        }
    }
}

impl Error for RouteError {}

/// A deterministic congestion-negotiating maze router.
///
/// # Examples
///
/// ```
/// use satroute_fpga::{Architecture, GlobalRouter, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arch = Architecture::new(4, 4)?;
/// let netlist = Netlist::random(&arch, 6, 2..=3, 11)?;
/// let routing = GlobalRouter::new().route(&arch, &netlist)?;
/// routing.validate(&arch)?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GlobalRouter {
    style: DecompositionStyle,
    ripup_passes: usize,
    congestion_weight: u64,
}

impl Default for GlobalRouter {
    fn default() -> Self {
        GlobalRouter {
            style: DecompositionStyle::Star,
            ripup_passes: 2,
            congestion_weight: 3,
        }
    }
}

impl GlobalRouter {
    /// Creates a router with default parameters (star decomposition, two
    /// rip-up passes, congestion weight 3).
    pub fn new() -> Self {
        GlobalRouter::default()
    }

    /// Sets the multi-pin decomposition style.
    pub fn with_decomposition(mut self, style: DecompositionStyle) -> Self {
        self.style = style;
        self
    }

    /// Sets the number of rip-up-and-reroute refinement passes.
    pub fn with_ripup_passes(mut self, passes: usize) -> Self {
        self.ripup_passes = passes;
        self
    }

    /// Sets the extra cost per net already occupying a segment.
    pub fn with_congestion_weight(mut self, weight: u64) -> Self {
        self.congestion_weight = weight;
        self
    }

    /// Routes every subnet of `netlist` on `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::NoPath`] if the maze search fails (impossible
    /// on a connected fabric, but surfaced rather than panicking).
    pub fn route(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
    ) -> Result<GlobalRouting, RouteError> {
        let subnets = decompose(netlist, self.style);
        let graph = SegmentGraph::new(arch);
        let mut search = MazeSearch::new(arch.num_segments());
        // usage[s] = number of subnets currently routed through segment s.
        let mut usage: Vec<u64> = vec![0; arch.num_segments()];
        let mut paths: Vec<Vec<u32>> = vec![Vec::new(); subnets.len()];

        // Route longer subnets first: they have fewer detour options.
        let mut order: Vec<usize> = (0..subnets.len()).collect();
        order.sort_by_key(|&i| {
            let s = subnets[i];
            let dx = (i32::from(s.from.x) - i32::from(s.to.x)).unsigned_abs();
            let dy = (i32::from(s.from.y) - i32::from(s.to.y)).unsigned_abs();
            (Reverse(dx + dy), i)
        });

        for _ in 0..=self.ripup_passes {
            for &i in &order {
                // Rip up the previous pass's route (empty on the first).
                for &seg in &paths[i] {
                    usage[seg as usize] -= 1;
                }
                let subnet = subnets[i];
                let src = arch.pin_segment(subnet.from.x, subnet.from.y, subnet.from.side);
                let dst = arch.pin_segment(subnet.to.x, subnet.to.y, subnet.to.side);
                let found = search.run(
                    &graph,
                    arch.segment_index(src),
                    arch.segment_index(dst),
                    |idx| 1u64.saturating_add(self.congestion_weight.saturating_mul(usage[idx])),
                    &mut paths[i],
                );
                if !found {
                    return Err(RouteError::NoPath(subnet));
                }
                for &seg in &paths[i] {
                    usage[seg as usize] += 1;
                }
            }
        }

        let routes = subnets
            .into_iter()
            .zip(paths)
            .map(|(subnet, path)| SubnetRoute {
                subnet,
                path: path
                    .iter()
                    .map(|&idx| arch.segment_at(idx as usize))
                    .collect(),
            })
            .collect();
        Ok(GlobalRouting::new(routes))
    }
}

/// The switch-block adjacency of every segment, by dense segment index, in
/// [`Architecture::neighbors`] order.
struct SegmentGraph {
    /// `targets[start[i]..start[i + 1]]` are segment `i`'s neighbors.
    start: Vec<u32>,
    targets: Vec<u32>,
}

impl SegmentGraph {
    fn new(arch: &Architecture) -> Self {
        assert!(
            arch.num_segments() < MazeSearch::UNREACHED as usize,
            "{arch} has too many segments for 32-bit segment indices"
        );
        let mut start = Vec::with_capacity(arch.num_segments() + 1);
        let mut targets = Vec::with_capacity(6 * arch.num_segments());
        start.push(0);
        for seg in arch.segments() {
            targets.extend(
                arch.neighbors(seg)
                    .into_iter()
                    .map(|n| arch.segment_index(n) as u32),
            );
            start.push(targets.len() as u32);
        }
        SegmentGraph { start, targets }
    }

    fn neighbors(&self, idx: usize) -> &[u32] {
        &self.targets[self.start[idx] as usize..self.start[idx + 1] as usize]
    }
}

/// Dijkstra state shared by the searches of one routing call; each search
/// resets only the entries the previous one touched.
struct MazeSearch {
    dist: Vec<u64>,
    /// Predecessor on the best known path; [`MazeSearch::UNREACHED`] until
    /// the segment is reached, and the source points at itself. Reachedness
    /// lives here rather than in `dist` because saturated costs make
    /// `u64::MAX` a real distance.
    prev: Vec<u32>,
    touched: Vec<u32>,
    queue: RadixQueue,
}

impl MazeSearch {
    const UNREACHED: u32 = u32::MAX;

    fn new(num_segments: usize) -> Self {
        MazeSearch {
            dist: vec![0; num_segments],
            prev: vec![Self::UNREACHED; num_segments],
            touched: Vec::new(),
            queue: RadixQueue::new(),
        }
    }

    /// Records `idx` as reached at distance `d` through `from`.
    fn reach(&mut self, idx: usize, d: u64, from: u32) {
        if self.prev[idx] == Self::UNREACHED {
            self.touched.push(idx as u32);
        }
        self.dist[idx] = d;
        self.prev[idx] = from;
        self.queue.push(d, idx as u32);
    }

    /// Finds a cheapest segment path from `src` to `dst`, where entering
    /// segment `i` (the source included) costs `enter_cost(i)`, and writes
    /// it into `path` as segment indices. Returns `false` if `dst` is
    /// unreachable.
    fn run(
        &mut self,
        graph: &SegmentGraph,
        src: usize,
        dst: usize,
        enter_cost: impl Fn(usize) -> u64,
        path: &mut Vec<u32>,
    ) -> bool {
        for &idx in &self.touched {
            self.prev[idx as usize] = Self::UNREACHED;
        }
        self.touched.clear();
        self.queue.clear();

        self.reach(src, enter_cost(src), src as u32);
        while let Some((d, idx)) = self.queue.pop() {
            let idx = idx as usize;
            if d > self.dist[idx] {
                continue;
            }
            if idx == dst {
                break;
            }
            for &next in graph.neighbors(idx) {
                let next = next as usize;
                let nd = d.saturating_add(enter_cost(next));
                if self.prev[next] == Self::UNREACHED || nd < self.dist[next] {
                    self.reach(next, nd, idx as u32);
                }
            }
        }

        path.clear();
        if self.prev[dst] == Self::UNREACHED {
            return false;
        }
        let mut cur = dst;
        loop {
            path.push(cur as u32);
            if cur == src {
                break;
            }
            cur = self.prev[cur] as usize;
        }
        path.reverse();
        true
    }
}

/// A monotone priority queue of `(distance, segment index)` entries (a
/// radix heap). It pops in ascending (distance, index) order, like a binary
/// heap of the pairs would, provided no distance below the last one popped
/// is pushed — Dijkstra never does, as costs are positive and saturate
/// rather than wrap. Memory is bounded by the entries held, whatever the
/// distances.
struct RadixQueue {
    /// The distance of the last refill; every held distance is `>= last`.
    last: u64,
    /// The segments at distance `last`, smallest index on top.
    current: BinaryHeap<Reverse<u32>>,
    /// `buckets[b]` holds the entries whose highest bit differing from
    /// `last` is bit `b`.
    buckets: [Vec<(u64, u32)>; 64],
}

impl RadixQueue {
    fn new() -> Self {
        RadixQueue {
            last: 0,
            current: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }

    fn clear(&mut self) {
        self.last = 0;
        self.current.clear();
        self.buckets.iter_mut().for_each(Vec::clear);
    }

    fn push(&mut self, d: u64, idx: u32) {
        debug_assert!(d >= self.last, "distance {d} below {}", self.last);
        match d ^ self.last {
            // Only a saturated distance can equal the one being popped.
            0 => self.current.push(Reverse(idx)),
            diff => self.buckets[diff.ilog2() as usize].push((d, idx)),
        }
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.current.is_empty() {
            // The lowest non-empty bucket holds the smallest distances; its
            // entries all land in lower buckets (or `current`) once `last`
            // is their minimum.
            let b = self.buckets.iter().position(|v| !v.is_empty())?;
            let mut refill = std::mem::take(&mut self.buckets[b]);
            self.last = refill.iter().map(|&(d, _)| d).min().expect("non-empty");
            for &(d, idx) in &refill {
                self.push(d, idx);
            }
            refill.clear();
            self.buckets[b] = refill;
        }
        let Reverse(idx) = self.current.pop()?;
        Some((self.last, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Net, Side, Terminal};

    fn t(x: u16, y: u16, side: Side) -> Terminal {
        Terminal { x, y, side }
    }

    #[test]
    fn routes_single_straight_net() {
        let arch = Architecture::new(3, 1).unwrap();
        let net = Net::new(vec![t(0, 0, Side::South), t(2, 0, Side::South)]).unwrap();
        let nl = Netlist::new(&arch, vec![net]).unwrap();
        let routing = GlobalRouter::new().route(&arch, &nl).unwrap();
        routing.validate(&arch).unwrap();
        assert_eq!(routing.len(), 1);
        // Straight shot along the bottom channel: 3 segments.
        assert_eq!(routing.routes()[0].path.len(), 3);
    }

    #[test]
    fn same_segment_pins_yield_single_segment_path() {
        let arch = Architecture::new(2, 1).unwrap();
        // South pins of horizontally adjacent blocks share no segment, but
        // the North pin of (0,0) and South of... use two pins on the same
        // block-edge channel segment: block (0,0) South and... only one pin
        // per side per block, so use a net whose two pins map to the same
        // segment: impossible on distinct blocks here — instead verify a
        // minimal two-block route validates.
        let net = Net::new(vec![t(0, 0, Side::East), t(1, 0, Side::West)]).unwrap();
        let nl = Netlist::new(&arch, vec![net]).unwrap();
        let routing = GlobalRouter::new().route(&arch, &nl).unwrap();
        routing.validate(&arch).unwrap();
        // Both pins connect to V(1,0): a single-segment path.
        assert_eq!(routing.routes()[0].path.len(), 1);
    }

    #[test]
    fn routing_is_deterministic() {
        let arch = Architecture::new(5, 5).unwrap();
        let nl = Netlist::random(&arch, 15, 2..=4, 42).unwrap();
        let r1 = GlobalRouter::new().route(&arch, &nl).unwrap();
        let r2 = GlobalRouter::new().route(&arch, &nl).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn all_routes_validate_on_random_netlists() {
        for seed in 0..5u64 {
            let arch = Architecture::new(6, 4).unwrap();
            let nl = Netlist::random(&arch, 12, 2..=4, seed).unwrap();
            let routing = GlobalRouter::new().route(&arch, &nl).unwrap();
            routing.validate(&arch).unwrap();
            assert_eq!(
                routing.len(),
                nl.iter().map(|(_, n)| n.num_terminals() - 1).sum::<usize>()
            );
        }
    }

    #[test]
    fn congestion_weight_spreads_traffic() {
        // Many nets crossing the same column; a congestion-aware router
        // should not exceed the uncongested router's peak usage.
        let arch = Architecture::new(6, 6).unwrap();
        let nl = Netlist::random(&arch, 20, 2..=2, 8).unwrap();
        let flat = GlobalRouter::new()
            .with_congestion_weight(0)
            .with_ripup_passes(0)
            .route(&arch, &nl)
            .unwrap();
        let spread = GlobalRouter::new().route(&arch, &nl).unwrap();
        assert!(
            spread.max_segment_congestion(&arch) <= flat.max_segment_congestion(&arch),
            "negotiation should not make congestion worse"
        );
    }

    #[test]
    fn saturating_costs_route_any_congestion_weight() {
        // 60 nets on a 200-pin fabric: most segments carry several nets, so
        // `weight * usage` and the path sums pass `u64::MAX`.
        let arch = Architecture::new(10, 5).unwrap();
        let nl = Netlist::random(&arch, 60, 2..=3, 5).unwrap();
        for weight in [u64::MAX, u64::MAX / 3, 1 << 62] {
            let routing = GlobalRouter::new()
                .with_congestion_weight(weight)
                .route(&arch, &nl)
                .unwrap();
            routing.validate(&arch).unwrap();
            assert_eq!(
                routing.len(),
                nl.iter().map(|(_, n)| n.num_terminals() - 1).sum::<usize>()
            );
        }
    }

    #[test]
    fn radix_queue_pops_like_a_binary_heap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Dijkstra-shaped traffic: every push is above the last popped
        // distance, or equal to it once distances saturate.
        let mut radix = RadixQueue::new();
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            radix.clear();
            let mut last = 0u64;
            for _ in 0..3000 {
                if heap.is_empty() || rng.gen_bool(0.55) {
                    let step = match rng.gen_range(0u32..20) {
                        0 => u64::MAX,
                        1 => rng.gen_range(1u64..=u64::MAX / 2),
                        _ => rng.gen_range(1u64..=40),
                    };
                    let entry = (last.saturating_add(step), rng.gen_range(0u32..64));
                    radix.push(entry.0, entry.1);
                    heap.push(Reverse(entry));
                } else {
                    let popped = radix.pop();
                    assert_eq!(popped, heap.pop().map(|Reverse(e)| e), "seed {seed}");
                    last = popped.expect("non-empty").0;
                }
            }
            while let Some(Reverse(entry)) = heap.pop() {
                assert_eq!(radix.pop(), Some(entry), "seed {seed}");
            }
            assert_eq!(radix.pop(), None);
        }
    }

    #[test]
    fn density_ignores_route_order() {
        let arch = Architecture::new(6, 6).unwrap();
        let nl = Netlist::random(&arch, 20, 2..=4, 3).unwrap();
        let routing = GlobalRouter::new().route(&arch, &nl).unwrap();
        let mut reversed = routing.routes().to_vec();
        reversed.reverse();
        let mut interleaved = routing.routes().to_vec();
        interleaved.sort_by_key(|r| (r.path.len(), r.subnet.to.x));
        let density = routing.max_segment_congestion(&arch);
        assert!(density >= 2);
        for routes in [reversed, interleaved] {
            assert_eq!(
                GlobalRouting::new(routes).max_segment_congestion(&arch),
                density
            );
        }
    }

    #[test]
    fn validate_rejects_corrupted_paths() {
        let arch = Architecture::new(3, 3).unwrap();
        let nl = Netlist::random(&arch, 4, 2..=2, 2).unwrap();
        let routing = GlobalRouter::new().route(&arch, &nl).unwrap();

        let mut broken = routing.routes().to_vec();
        broken[0].path.clear();
        assert!(matches!(
            GlobalRouting::new(broken).validate(&arch),
            Err(RouteError::EmptyPath(_))
        ));

        let mut broken = routing.routes().to_vec();
        broken[0].path.remove(0);
        let res = GlobalRouting::new(broken).validate(&arch);
        assert!(res.is_err());
    }

    #[test]
    fn chain_decomposition_also_routes() {
        let arch = Architecture::new(5, 5).unwrap();
        let nl = Netlist::random(&arch, 8, 3..=5, 21).unwrap();
        let routing = GlobalRouter::new()
            .with_decomposition(DecompositionStyle::Chain)
            .route(&arch, &nl)
            .unwrap();
        routing.validate(&arch).unwrap();
    }
}
