//! Golden replay of the buffer path.
//!
//! Every replacement policy and the swizzling Buffering Manager replay
//! one seeded 50k-operation trace over 3 000 pages with 1 000 frames. The
//! full outcome sequence (hit or miss, victim, victim's dirty flag, and
//! every `flush_all` result) is folded into a digest pinned below. A
//! change to the pool's data structures must keep every hit, victim and
//! dirty flag identical, for all policies, not only LRU.

use bufmgr::{AccessOutcome, BufferPool, PolicyKind};
use voodb::BufferingManager;

const PAGES: u64 = 3_000;
const HOT_PAGES: u64 = 600;
const FRAMES: usize = 1_000;
const OPS: usize = 50_000;
const SEED: u64 = 0x05EE_DB0F;

/// SplitMix64: a self-contained stream, so the trace never moves with
/// the library's generators.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn pages(&mut self, tag: u64, pages: &[u32]) {
        self.word(tag);
        self.word(pages.len() as u64);
        for &p in pages {
            self.word(u64::from(p));
        }
    }
}

#[derive(Clone, Copy)]
enum Op {
    Access(u32, bool),
    Prefetch(u32),
    MarkDirty(u32),
    Invalidate(u32),
    FlushAll,
}

/// 80% of references go to a hot set of 600 pages; the rest spread over
/// all 3 000. Accesses dominate, a quarter of them writes.
fn trace() -> Vec<Op> {
    let mut rng = SplitMix(SEED);
    (0..OPS)
        .map(|i| {
            if i == OPS / 2 {
                return Op::FlushAll;
            }
            let page = if rng.below(10) < 8 {
                rng.below(HOT_PAGES)
            } else {
                rng.below(PAGES)
            } as u32;
            match rng.below(100) {
                0..=89 => Op::Access(page, rng.below(4) == 0),
                90..=94 => Op::Prefetch(page),
                95..=97 => Op::MarkDirty(page),
                _ => Op::Invalidate(page),
            }
        })
        .collect()
}

fn eviction(d: &mut Digest, evicted: Option<(u32, bool)>) {
    match evicted {
        None => d.word(0),
        Some((victim, dirty)) => {
            d.word(1 + u64::from(dirty));
            d.word(u64::from(victim));
        }
    }
}

/// Replays the trace on a pool under `kind`; `invalidates = false`
/// skips the invalidations (the replay CLOCK and GCLOCK were first
/// pinned on, when their ring could not survive two invalidations
/// between evictions).
fn pool_digest(kind: PolicyKind, invalidates: bool) -> u64 {
    let mut pool = BufferPool::new(FRAMES, kind);
    let mut d = Digest::new();
    for op in trace() {
        match op {
            Op::Invalidate(_) if !invalidates => {}
            Op::Access(page, write) => match pool.access(page, write) {
                AccessOutcome::Hit => d.word(7),
                AccessOutcome::Miss { evicted } => {
                    d.word(8);
                    eviction(&mut d, evicted);
                }
            },
            Op::Prefetch(page) => {
                d.word(9);
                eviction(&mut d, pool.prefetch(page));
            }
            Op::MarkDirty(page) => pool.mark_dirty(page),
            Op::Invalidate(page) => {
                d.word(10);
                d.word(match pool.invalidate(page) {
                    None => 0,
                    Some(dirty) => 1 + u64::from(dirty),
                });
            }
            Op::FlushAll => d.pages(11, &pool.flush_all()),
        }
    }
    let s = pool.stats();
    for x in [s.hits, s.misses, s.evictions, s.dirty_evictions] {
        d.word(x);
    }
    d.pages(11, &pool.flush_all());
    d.0
}

fn swizzling_digest() -> u64 {
    let mut bman = BufferingManager::swizzling(FRAMES);
    let mut d = Digest::new();
    for op in trace() {
        let demand = match op {
            Op::Access(page, write) => bman.access(page, write),
            Op::Prefetch(page) => bman.prefetch(page),
            Op::MarkDirty(_) => continue,
            Op::Invalidate(page) => {
                d.word(10);
                d.word(bman.invalidate(page).map_or(0, |p| 1 + u64::from(p)));
                continue;
            }
            Op::FlushAll => {
                d.pages(11, &bman.flush_all());
                continue;
            }
        };
        d.word(u64::from(demand.hit));
        d.pages(12, &demand.reads);
        d.pages(13, &demand.writes);
    }
    let s = bman.stats();
    for x in [s.hits, s.misses, s.swizzled] {
        d.word(x);
    }
    d.pages(11, &bman.flush_all());
    d.0
}

#[test]
fn every_policy_replays_the_pinned_outcome_sequence() {
    let pinned: [(&str, u64); 7] = [
        ("RANDOM", 0x1b0c_5c6b_7f71_168e),
        ("FIFO", 0x1066_cd14_33e1_05be),
        ("LRU", 0x4771_f3b4_ee8b_30c0),
        ("LRU-2", 0xbfa1_e618_e40d_de6c),
        ("LFU", 0x31aa_463c_69c0_c06d),
        ("CLOCK", 0xeaf9_4813_13f7_f026),
        ("GCLOCK(3)", 0xfd17_fc11_19ee_5abc),
    ];
    let kinds = PolicyKind::all_default();
    assert_eq!(kinds.len(), pinned.len());
    let actual: Vec<(String, u64)> = kinds
        .into_iter()
        .map(|kind| (kind.to_string(), pool_digest(kind, true)))
        .collect();
    let expected: Vec<(String, u64)> = pinned
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(actual, expected, "actual digests: {actual:#x?}");
}

#[test]
fn clock_policies_replay_the_pinned_invalidation_free_sequence() {
    let actual = [
        pool_digest(PolicyKind::Clock, false),
        pool_digest(PolicyKind::GClock { weight: 3 }, false),
    ];
    assert_eq!(
        actual,
        [0xb32b_f6ca_3cc8_9222, 0x32ea_6be6_1013_ed9b],
        "actual digests: {actual:#x?}"
    );
}

#[test]
fn swizzling_manager_replays_the_pinned_demand_sequence() {
    let digest = swizzling_digest();
    assert_eq!(digest, 0xf59b_fced_97d3_64fe, "actual digest: {digest:#x}");
}
