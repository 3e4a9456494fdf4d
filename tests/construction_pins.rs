//! Identity pins for instance construction: global routes, conflict graphs,
//! channel density, detailed-routing verdicts and the DSATUR / greedy-clique
//! bounds.
//!
//! Every figure below is an FNV-1a hash of a layer's output, recorded from
//! the straightforward implementation the current one replaced (one search
//! allocation per subnet, set-backed graph and DSATUR). A changed hash means
//! a layer's output changed, which also changes the routebench pool
//! fingerprints and the bench baselines built from these layers.
//!
//! When a pin fails, the test prints the whole recomputed table in source
//! form; paste it in only when the output change is intended.

use std::ops::RangeInclusive;

use satroute::coloring::{dsatur_coloring, random_graph, CspGraph};
use satroute::fpga::{
    Architecture, DecompositionStyle, DetailedRouting, GlobalRouter, GlobalRouting, Netlist,
    RoutingProblem,
};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Fabric `(width, height)`, net count and terminals per net. The 10×5
/// fabric has 200 pins, so its 60 nets take at most 3 terminals each.
const FABRICS: [((u16, u16), usize, RangeInclusive<usize>); 4] = [
    ((6, 6), 24, 2..=4),
    ((8, 8), 50, 2..=4),
    ((16, 16), 250, 2..=4),
    ((10, 5), 60, 2..=3),
];
const WEIGHTS: [u64; 3] = [0, 1, 3];
const PASSES: [usize; 2] = [0, 2];
const STYLES: [DecompositionStyle; 2] = [DecompositionStyle::Star, DecompositionStyle::Chain];
const NETLIST_SEEDS: [u64; 2] = [11, 12];

/// Hashes of one router configuration's outputs over [`NETLIST_SEEDS`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct RoutePin {
    paths: u64,
    graph: u64,
    density: u64,
    verify: u64,
    dsatur: u64,
    clique: u64,
}

fn hash_paths(h: &mut Fnv, arch: &Architecture, routing: &GlobalRouting) {
    for route in routing.routes() {
        h.word(route.path.len() as u64);
        for &seg in &route.path {
            h.word(arch.segment_index(seg) as u64);
        }
    }
}

fn hash_graph(h: &mut Fnv, graph: &CspGraph) {
    h.word(graph.num_vertices() as u64);
    h.word(graph.num_edges() as u64);
    for (u, v) in graph.edges() {
        h.word(u64::from(u) << 32 | u64::from(v));
    }
}

fn hash_words(h: &mut Fnv, words: impl IntoIterator<Item = u32>) {
    for w in words {
        h.word(u64::from(w));
    }
    h.word(u64::MAX);
}

/// Hashes the verifier's verdict on a proper routing and on a spread of
/// broken ones, so a changed first error shows up as well as a changed
/// verdict.
fn hash_verdicts(h: &mut Fnv, problem: &RoutingProblem, graph: &CspGraph, tracks: &[u32]) {
    let n = tracks.len();
    let width = tracks.iter().max().map_or(1, |m| m + 1);
    let mut cases: Vec<(Vec<u32>, u32)> = vec![
        (tracks.to_vec(), width),
        (tracks.to_vec(), width - 1),
        (vec![0; n], 1),
        ((0..n as u32).map(|i| i % 2).collect(), 2),
        ((0..n as u32).map(|i| i % 5).collect(), 5),
        (tracks.to_vec(), width + 1),
    ];
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let step = (edges.len() / 8).max(1);
    for &(a, b) in edges.iter().step_by(step) {
        let mut broken = tracks.to_vec();
        broken[b as usize] = broken[a as usize];
        cases.push((broken, width));
    }
    cases.push((vec![0; n + 1], width));
    for (tracks, width) in cases {
        let verdict = problem.verify_detailed_routing(&DetailedRouting::from_tracks(tracks), width);
        h.bytes(format!("{verdict:?}").as_bytes());
    }
}

fn route_pin(fabric: usize, weight: u64, passes: usize, style: DecompositionStyle) -> RoutePin {
    let ((w, h), nets, terminals) = FABRICS[fabric].clone();
    let mut hashes: [Fnv; 6] = std::array::from_fn(|_| Fnv::new());
    for seed in NETLIST_SEEDS {
        let arch = Architecture::new(w, h).expect("non-empty fabric");
        let netlist = Netlist::random(&arch, nets, terminals.clone(), seed).expect("pins suffice");
        let routing = GlobalRouter::new()
            .with_congestion_weight(weight)
            .with_ripup_passes(passes)
            .with_decomposition(style)
            .route(&arch, &netlist)
            .expect("connected fabric");
        routing.validate(&arch).expect("valid routing");
        hash_paths(&mut hashes[0], &arch, &routing);
        hashes[2].word(routing.max_segment_congestion(&arch) as u64);
        let problem = RoutingProblem::new(arch, netlist, routing);
        let graph = problem.conflict_graph();
        hash_graph(&mut hashes[1], &graph);
        let coloring = dsatur_coloring(&graph);
        hash_verdicts(&mut hashes[3], &problem, &graph, coloring.colors());
        hash_words(&mut hashes[4], coloring.colors().iter().copied());
        hash_words(&mut hashes[5], graph.greedy_clique());
    }
    let [paths, graph, density, verify, dsatur, clique] = hashes.map(|h| h.0);
    RoutePin {
        paths,
        graph,
        density,
        verify,
        dsatur,
        clique,
    }
}

type RouteRow = (usize, u64, usize, DecompositionStyle, RoutePin);

#[rustfmt::skip]
const ROUTE_PINS: &[RouteRow] = &[
    (0, 0, 0, DecompositionStyle::Star, RoutePin { paths: 0x83218502f6ac5718, graph: 0x0c49296f4f7a5597, density: 0xc2ff656887603aca, verify: 0xfcc46d2cda44fb30, dsatur: 0x83d2ca2544d542cb, clique: 0x0fcf068846f7fedd }),
    (0, 0, 0, DecompositionStyle::Chain, RoutePin { paths: 0x50b560c8f545f6b6, graph: 0xbd811d5a487921e0, density: 0xe1fa2c71924f84eb, verify: 0xf1146d5426297f98, dsatur: 0x8d9f0924da1016e9, clique: 0x34341a45e1f6d081 }),
    (0, 0, 2, DecompositionStyle::Star, RoutePin { paths: 0x83218502f6ac5718, graph: 0x0c49296f4f7a5597, density: 0xc2ff656887603aca, verify: 0xfcc46d2cda44fb30, dsatur: 0x83d2ca2544d542cb, clique: 0x0fcf068846f7fedd }),
    (0, 0, 2, DecompositionStyle::Chain, RoutePin { paths: 0x50b560c8f545f6b6, graph: 0xbd811d5a487921e0, density: 0xe1fa2c71924f84eb, verify: 0xf1146d5426297f98, dsatur: 0x8d9f0924da1016e9, clique: 0x34341a45e1f6d081 }),
    (0, 1, 0, DecompositionStyle::Star, RoutePin { paths: 0xe662f5d8ac64c7a3, graph: 0xbe7e30e00356da1a, density: 0xb70a5d074331a7e6, verify: 0xd4dacb418af18f96, dsatur: 0xb64126a0d04e4e14, clique: 0x267d4816e226ea99 }),
    (0, 1, 0, DecompositionStyle::Chain, RoutePin { paths: 0x72c44e7d783af07f, graph: 0x953c5e1e3fb941cc, density: 0x060872cf5646c027, verify: 0x68a57696813776ff, dsatur: 0x0dd739de77cd3471, clique: 0xf7f871730577a9af }),
    (0, 1, 2, DecompositionStyle::Star, RoutePin { paths: 0x93a93f621db793a7, graph: 0xa4c0e85a5458c765, density: 0x980f95fe38425dc5, verify: 0x40766328ec8f9936, dsatur: 0x959ae54ea69267b3, clique: 0x58ccf257f82129a3 }),
    (0, 1, 2, DecompositionStyle::Chain, RoutePin { paths: 0x5a6c32982073196c, graph: 0x9d0e7aeb49874ae3, density: 0x980f95fe38425dc5, verify: 0xf2e81557d511b8b1, dsatur: 0x15332316473ba315, clique: 0xc1c9fcf4ec5ed0c2 }),
    (0, 3, 0, DecompositionStyle::Star, RoutePin { paths: 0xeef247559633f7eb, graph: 0x21378ef99bcd3615, density: 0x2819823b50b3c825, verify: 0xd2cba9d32cece1a6, dsatur: 0xcbc044873c48caf7, clique: 0x45f81053f7e4c055 }),
    (0, 3, 0, DecompositionStyle::Chain, RoutePin { paths: 0x2e78929efac26aea, graph: 0x2715ef636e6da82a, density: 0xb70a5d074331a7e6, verify: 0xa16dc4c96e07a36e, dsatur: 0xdb4387c0303950d0, clique: 0x68a6dd98bf23ddab }),
    (0, 3, 2, DecompositionStyle::Star, RoutePin { paths: 0xa712afd3189e5fc7, graph: 0x851764739714d8e1, density: 0xb70a5d074331a7e6, verify: 0x0bb26397948b86c0, dsatur: 0x2fbee6b4596426d6, clique: 0xa22f054e3d50be44 }),
    (0, 3, 2, DecompositionStyle::Chain, RoutePin { paths: 0x7bfb5cf7336f4d84, graph: 0x523150eede801fd3, density: 0x980f95fe38425dc5, verify: 0x441594e53e95ac18, dsatur: 0xdf4f155bb134cf52, clique: 0xebdde6ac7de42720 }),
    (1, 0, 0, DecompositionStyle::Star, RoutePin { paths: 0x1df4b1e378020e36, graph: 0x3087fc58b8732e16, density: 0x873bfa38bd68bbc6, verify: 0xfd1cf56ac3b5f107, dsatur: 0x16fef01fffdca445, clique: 0x2d076fdd5ca4f457 }),
    (1, 0, 0, DecompositionStyle::Chain, RoutePin { paths: 0x76e2ecc09a4f99d9, graph: 0xb4335fb897130efd, density: 0xd83746f29a080745, verify: 0xca604394883ced11, dsatur: 0x95a0151a160fcaf0, clique: 0x6dfb7c10747c7189 }),
    (1, 0, 2, DecompositionStyle::Star, RoutePin { paths: 0x1df4b1e378020e36, graph: 0x3087fc58b8732e16, density: 0x873bfa38bd68bbc6, verify: 0xfd1cf56ac3b5f107, dsatur: 0x16fef01fffdca445, clique: 0x2d076fdd5ca4f457 }),
    (1, 0, 2, DecompositionStyle::Chain, RoutePin { paths: 0x76e2ecc09a4f99d9, graph: 0xb4335fb897130efd, density: 0xd83746f29a080745, verify: 0xca604394883ced11, dsatur: 0x95a0151a160fcaf0, clique: 0x6dfb7c10747c7189 }),
    (1, 1, 0, DecompositionStyle::Star, RoutePin { paths: 0x8b11cb9f1d53ccbc, graph: 0x37c344162b9d0b37, density: 0xf816337c488dfa05, verify: 0x332abf3c5494d8b7, dsatur: 0x54cc0ee6932b4acb, clique: 0x758466fb5af37041 }),
    (1, 1, 0, DecompositionStyle::Chain, RoutePin { paths: 0x70aae7e6c06641b9, graph: 0x6d059a4006f0db5e, density: 0xa32078ded8da480a, verify: 0xae98229d81271b2f, dsatur: 0xeee6962694c4dc91, clique: 0x2540411c9264ae28 }),
    (1, 1, 2, DecompositionStyle::Star, RoutePin { paths: 0xec1498efa5ff9464, graph: 0x91f3683032c26a32, density: 0x9217f128dba3c40b, verify: 0xbf5f887dd346785a, dsatur: 0xe263ba4b7a1c60da, clique: 0x7fd2de984403cea4 }),
    (1, 1, 2, DecompositionStyle::Chain, RoutePin { paths: 0x4569a2f5f53aca4a, graph: 0x995c46f55042b13d, density: 0xd91b6c733d9eafe4, verify: 0x7c1f85ed54c14bf3, dsatur: 0x59c50dd10a4548b5, clique: 0x8be0a48cc07787bc }),
    (1, 3, 0, DecompositionStyle::Star, RoutePin { paths: 0xfac79f3b49d86843, graph: 0x4505194a733f7592, density: 0x083a95b1a22dd565, verify: 0xaee545ee6d021819, dsatur: 0x54e3b8d9eedc5abd, clique: 0x418d0fc74a05927a }),
    (1, 3, 0, DecompositionStyle::Chain, RoutePin { paths: 0xee2cce0ab4d7f84f, graph: 0x0ef134b8ae8f7105, density: 0xf816337c488dfa05, verify: 0xec15863bc7ed1a29, dsatur: 0xf4b745206b40dc50, clique: 0x4592f5ca57929f7c }),
    (1, 3, 2, DecompositionStyle::Star, RoutePin { paths: 0x65ae0f34015f2372, graph: 0xb4db4b6210470446, density: 0xa32078ded8da480a, verify: 0xe3fb9487198cce2c, dsatur: 0xebddbe5661ccb72a, clique: 0xbe8d657ea272fa64 }),
    (1, 3, 2, DecompositionStyle::Chain, RoutePin { paths: 0xd7e3023442936e12, graph: 0x357261125432279b, density: 0x2819823b50b3c825, verify: 0x25e38433632de6d7, dsatur: 0xf92834e14ebbf756, clique: 0xb3bcfaf1b712a651 }),
    (2, 0, 0, DecompositionStyle::Star, RoutePin { paths: 0x7ed9f49f7449e598, graph: 0x2570101a0144abbb, density: 0x984481eeba9f3fc5, verify: 0x35ff9951529a3262, dsatur: 0xa4c5d9e99ee845f7, clique: 0x021c191595c7d2cc }),
    (2, 0, 0, DecompositionStyle::Chain, RoutePin { paths: 0x20fe82c6ffbe1534, graph: 0x80d605bea303d5b0, density: 0xa94d09a4b7d5c3c4, verify: 0xab00af48aebb34b2, dsatur: 0xd45e5f1704b23105, clique: 0xb38e09ec36ea2081 }),
    (2, 0, 2, DecompositionStyle::Star, RoutePin { paths: 0x7ed9f49f7449e598, graph: 0x2570101a0144abbb, density: 0x984481eeba9f3fc5, verify: 0x35ff9951529a3262, dsatur: 0xa4c5d9e99ee845f7, clique: 0x021c191595c7d2cc }),
    (2, 0, 2, DecompositionStyle::Chain, RoutePin { paths: 0x20fe82c6ffbe1534, graph: 0x80d605bea303d5b0, density: 0xa94d09a4b7d5c3c4, verify: 0xab00af48aebb34b2, dsatur: 0xd45e5f1704b23105, clique: 0xb38e09ec36ea2081 }),
    (2, 1, 0, DecompositionStyle::Star, RoutePin { paths: 0x560cfa712db9c9ad, graph: 0xd96f168f1bead9a3, density: 0xc960e21ee8b89884, verify: 0x33fccf39f5f79d8f, dsatur: 0x453a2d79b5101566, clique: 0x8ffa8dfb6575bacf }),
    (2, 1, 0, DecompositionStyle::Chain, RoutePin { paths: 0xdcd618db5b8777b7, graph: 0x138ce11d426dfe0a, density: 0x21bdc43b7a4cc9db, verify: 0x684388815561226f, dsatur: 0x7e895f74a4bb6b70, clique: 0xbb3cdb18c5493b53 }),
    (2, 1, 2, DecompositionStyle::Star, RoutePin { paths: 0x90d085cb302b49e6, graph: 0x18cdde9ceb22e782, density: 0xc64a99bbf93adaa7, verify: 0x35a19c5212c1a72a, dsatur: 0x77fb0b16599baa21, clique: 0x66aaa7cb3568c05d }),
    (2, 1, 2, DecompositionStyle::Chain, RoutePin { paths: 0x3b2c4b3eabba209c, graph: 0x80cecc900853ff4b, density: 0x3724d2ff846018e6, verify: 0x253083ca49a2affa, dsatur: 0x3e01a78e9746b111, clique: 0xe3a54cebb9abba9d }),
    (2, 3, 0, DecompositionStyle::Star, RoutePin { paths: 0xd0757731eaecd522, graph: 0xa6197b5561752c1c, density: 0xb8585a68eb821485, verify: 0xa4ceb5861509aad9, dsatur: 0xf9e677c388f7a419, clique: 0xdc683529c3eb7901 }),
    (2, 3, 0, DecompositionStyle::Chain, RoutePin { paths: 0xa997fe21a9a0e366, graph: 0xa324a2a4443505f5, density: 0x88550ba9e35c4665, verify: 0xe13201ad7515d2c1, dsatur: 0xfeffcd76778d6f9a, clique: 0x0d11e4451901d183 }),
    (2, 3, 2, DecompositionStyle::Star, RoutePin { paths: 0x3143d86dd62ab505, graph: 0x16cd6a9cc7391a9d, density: 0x695a44a0d86cfc44, verify: 0x13bccf43e10cc01a, dsatur: 0x62e3e3bdf45be182, clique: 0x6db03eba1c5feb5d }),
    (2, 3, 2, DecompositionStyle::Chain, RoutePin { paths: 0x38ba614c25726992, graph: 0x36372894e8101e61, density: 0x3724d2ff846018e6, verify: 0x7a8659502573c7f5, dsatur: 0x5c6dbc6cd772eb8c, clique: 0x449552b4c47fb084 }),
    (3, 0, 0, DecompositionStyle::Star, RoutePin { paths: 0xc4bbeca4f15cf4ca, graph: 0x9d1dd862384159e8, density: 0xc72ebf3c9cd18346, verify: 0x292e216a0a14c0e4, dsatur: 0x6df2ace4f0a59c14, clique: 0x8ae11e8fa582e659 }),
    (3, 0, 0, DecompositionStyle::Chain, RoutePin { paths: 0xfc4ff4f4955a9ea1, graph: 0x17525f0a95a8a454, density: 0xe6298645a7c0cd67, verify: 0x77f84b77db4466c2, dsatur: 0x2c9f454b36fd3b18, clique: 0x51c05f12fe545e3f }),
    (3, 0, 2, DecompositionStyle::Star, RoutePin { paths: 0xc4bbeca4f15cf4ca, graph: 0x9d1dd862384159e8, density: 0xc72ebf3c9cd18346, verify: 0x292e216a0a14c0e4, dsatur: 0x6df2ace4f0a59c14, clique: 0x8ae11e8fa582e659 }),
    (3, 0, 2, DecompositionStyle::Chain, RoutePin { paths: 0xfc4ff4f4955a9ea1, graph: 0x17525f0a95a8a454, density: 0xe6298645a7c0cd67, verify: 0x77f84b77db4466c2, dsatur: 0x2c9f454b36fd3b18, clique: 0x51c05f12fe545e3f }),
    (3, 1, 0, DecompositionStyle::Star, RoutePin { paths: 0xb169a0fb28bbbdd1, graph: 0x534421444de380d0, density: 0x76337282c03237c7, verify: 0x496eb09416c6f3df, dsatur: 0xc9b14f76ea6d1deb, clique: 0x2537fd9258cb02c9 }),
    (3, 1, 0, DecompositionStyle::Chain, RoutePin { paths: 0x4640e3f288097f61, graph: 0xc09f3acac0a19746, density: 0xa636c141c85805e7, verify: 0x7494ecf8c1573b89, dsatur: 0x30ee75e9de89de3b, clique: 0x07c1979f1b9ea946 }),
    (3, 1, 2, DecompositionStyle::Star, RoutePin { paths: 0x1b1abed7dc89f340, graph: 0x6f1743a460c9f448, density: 0xb93c7fe98f18bd24, verify: 0x1d1c26426ab56607, dsatur: 0x523e40008c778032, clique: 0xa3654e6817683ae2 }),
    (3, 1, 2, DecompositionStyle::Chain, RoutePin { paths: 0x726e15c8aafa6891, graph: 0xde85584a0d75e37f, density: 0xa32078ded8da480a, verify: 0xab83a4126cc1a83c, dsatur: 0x9a10422d073502bd, clique: 0xbfdb5308f0607188 }),
    (3, 3, 0, DecompositionStyle::Star, RoutePin { paths: 0xcbb0c518887c5b35, graph: 0x45efaa57bb43d5a7, density: 0x873bfa38bd68bbc6, verify: 0x71e51fdf50398791, dsatur: 0xe3074f464facff72, clique: 0x7efc365476df81a1 }),
    (3, 3, 0, DecompositionStyle::Chain, RoutePin { paths: 0x7fd2f6aeabf30608, graph: 0x97a56adb12db3ac4, density: 0xa636c141c85805e7, verify: 0x559baeca45ee4a78, dsatur: 0x348b225032e5b080, clique: 0xb958ac90fec11279 }),
    (3, 3, 2, DecompositionStyle::Star, RoutePin { paths: 0x6b5faa9cd90e13ca, graph: 0xbd3f30919df584fa, density: 0xb93c7fe98f18bd24, verify: 0xc1ea2c89c79a8110, dsatur: 0xd015b49150c25880, clique: 0x3ef442139d692f1d }),
    (3, 3, 2, DecompositionStyle::Chain, RoutePin { paths: 0xdce188ae5dea6696, graph: 0x09abcb587d021c1e, density: 0x9217f128dba3c40b, verify: 0x5d5dc0688260042f, dsatur: 0x64481e45c273b651, clique: 0x76340ae072637385 }),
];

#[test]
fn global_routes_graphs_and_bounds_match_their_pins() {
    let mut found: Vec<RouteRow> = Vec::new();
    for fabric in 0..FABRICS.len() {
        for weight in WEIGHTS {
            for passes in PASSES {
                for style in STYLES {
                    let pin = route_pin(fabric, weight, passes, style);
                    found.push((fabric, weight, passes, style, pin));
                }
            }
        }
    }
    if found != ROUTE_PINS {
        println!("const ROUTE_PINS: &[RouteRow] = &[");
        for (fabric, weight, passes, style, p) in &found {
            println!(
                "    ({fabric}, {weight}, {passes}, DecompositionStyle::{style:?}, RoutePin {{ paths: {:#018x}, graph: {:#018x}, density: {:#018x}, verify: {:#018x}, dsatur: {:#018x}, clique: {:#018x} }}),",
                p.paths, p.graph, p.density, p.verify, p.dsatur, p.clique
            );
        }
        println!("];");
    }
    for (row, pin) in found.iter().zip(ROUTE_PINS) {
        assert_eq!(row, pin, "fabric {:?}", FABRICS[row.0]);
    }
    assert_eq!(found.len(), ROUTE_PINS.len());
}

/// `(n, p)` of the seeded random graphs.
const RANDOM_GRAPHS: [(usize, f64); 12] = [
    (10, 0.1),
    (10, 0.3),
    (10, 0.6),
    (40, 0.1),
    (40, 0.3),
    (40, 0.6),
    (120, 0.1),
    (120, 0.3),
    (120, 0.6),
    (300, 0.1),
    (300, 0.3),
    (300, 0.6),
];

/// Graph, DSATUR and greedy-clique hashes of one random graph per entry of
/// [`RANDOM_GRAPHS`], seeded by its index.
#[rustfmt::skip]
const RANDOM_PINS: &[(u64, u64, u64)] = &[
    (0x7188488592089c17, 0x74300dfcf080fd3c, 0xc988cfe5edf2c53c),
    (0x40f6c437706bface, 0x4c1815cb24e6fb5e, 0x8c31c0c67f4bc3a2),
    (0xa3082cd986cd3df3, 0x1bed7a8c6bec817d, 0x75e28820b8350a05),
    (0x8b55f38d544556d9, 0x5ed38f93c8ab39bc, 0x9a7b1fda425cfe2d),
    (0x57e9552eaf274f5a, 0x60c10987e982fc39, 0x83c80f179edbef93),
    (0x67d1d05b005c8deb, 0x9af957c17d382ba3, 0x2d6547bbf20c1a88),
    (0x1c57e84b9ca79a0f, 0x08aeaf8e9828d9ff, 0x3d83614ce4e86fe8),
    (0xcea833b36f90a5ed, 0x86525799c22f9965, 0xd5f233fa406df6c1),
    (0x3702d8ed1f720c1c, 0x6c5b7de3073dfece, 0x04bb7b93e4f94937),
    (0xaf74cc6ae2d99cf6, 0xe30943531856aafe, 0xaaf87b955cbd8589),
    (0xd547a7071997dc50, 0x66bc7fe187d9c294, 0xf7ce73426121b2ab),
    (0x421cba5309610050, 0x27ee20c41aa3fe69, 0x21aa90c71f2e4844),
];

#[test]
fn dsatur_and_clique_on_random_graphs_match_their_pins() {
    let found: Vec<(u64, u64, u64)> = RANDOM_GRAPHS
        .iter()
        .enumerate()
        .map(|(i, &(n, p))| {
            let graph = random_graph(n, p, 500 + i as u64);
            let mut hashes: [Fnv; 3] = std::array::from_fn(|_| Fnv::new());
            hash_graph(&mut hashes[0], &graph);
            hash_words(&mut hashes[1], dsatur_coloring(&graph).into_colors());
            hash_words(&mut hashes[2], graph.greedy_clique());
            let [g, d, c] = hashes.map(|h| h.0);
            (g, d, c)
        })
        .collect();
    if found != RANDOM_PINS {
        println!("const RANDOM_PINS: &[(u64, u64, u64)] = &[");
        for (g, d, c) in &found {
            println!("    ({g:#018x}, {d:#018x}, {c:#018x}),");
        }
        println!("];");
    }
    assert_eq!(found, RANDOM_PINS);
}
