//! Per-link staging in the relay primitives is a pure re-batching: the
//! words each link carries, and their order, are the ones the historical
//! word-by-word router queued. This file keeps that router as a reference
//! — same relay hash, same two-choice rule, one transport `send` per word —
//! and checks `route`, `route_dynamic`, their `_par` forms, and `gossip`
//! against it on seeded random patterns: identical inboxes, rounds, words,
//! pattern fingerprints, and transport epochs, on the in-memory and socket
//! fabrics.

use cc_clique::{
    Clique, CliqueConfig, Executor, NetsimConfig, RelayPolicy, Transport, TransportKind, Word,
};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What a sequence of primitive calls left behind.
#[derive(Debug, Default, PartialEq, Eq)]
struct Outcome {
    /// Per call: `[dst][src]` delivered words (route), or the union as a
    /// single `[0][0]` entry (gossip).
    delivered: Vec<Vec<Vec<Vec<Word>>>>,
    rounds: u64,
    words: u64,
    fingerprints: Vec<u64>,
    epochs: u64,
}

/// The reference fabric and its accounting, charged exactly as `Clique`
/// charges a barrier.
struct Reference {
    t: Box<dyn Transport>,
    cfg: CliqueConfig,
    n: usize,
    out: Outcome,
}

impl Reference {
    fn new(n: usize, cfg: &CliqueConfig) -> Self {
        Self {
            t: cfg.transport.build(n, Executor::default()),
            cfg: cfg.clone(),
            n,
            out: Outcome::default(),
        }
    }

    fn barrier(&mut self) {
        let loads = self.t.finish_round().loads;
        self.out.rounds += loads.rounds();
        self.out.words += loads.words();
        // FNV-1a over the canonical (src, dst, len) triples.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (s, d, l) in loads.iter() {
            for x in [s, d, l] {
                h ^= x as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.out.fingerprints.push(h);
        self.out.epochs = self.t.epoch();
    }

    /// The historical `route_inner`: one `send` per word in each phase.
    fn route(&mut self, per_node: Vec<Vec<(usize, Vec<Word>)>>, charge_headers: bool) {
        let n = self.n;
        let msgs: Vec<(usize, usize, Vec<Word>)> = per_node
            .into_iter()
            .enumerate()
            .flat_map(|(v, ms)| ms.into_iter().map(move |(dst, w)| (v, dst, w)))
            .filter(|(_, _, w)| !w.is_empty())
            .collect();
        let mut a_out = vec![0usize; n * n];
        let mut b_out = vec![0usize; n * n];
        let mut relays: Vec<Vec<usize>> = Vec::with_capacity(msgs.len());
        for (src, dst, words) in &msgs {
            let mut msg_relays = Vec::with_capacity(words.len());
            for (j, w) in words.iter().enumerate() {
                let h = splitmix(
                    self.cfg.route_seed ^ ((*src as u64) << 42) ^ ((*dst as u64) << 21) ^ j as u64,
                );
                let r1 = (h % n as u64) as usize;
                let relay = match self.cfg.relay_policy {
                    RelayPolicy::SingleHash => r1,
                    RelayPolicy::TwoChoice => {
                        let r2 = ((h >> 32) % n as u64) as usize;
                        let cost = |r: usize| a_out[src * n + r].max(b_out[r * n + dst]);
                        if cost(r1) <= cost(r2) {
                            r1
                        } else {
                            r2
                        }
                    }
                };
                let payload = if charge_headers { 2 } else { 1 };
                a_out[src * n + relay] += payload;
                b_out[relay * n + dst] += payload;
                if charge_headers {
                    self.t.send(*src, relay, &[*w, *dst as Word]);
                } else {
                    self.t.send(*src, relay, &[*w]);
                }
                msg_relays.push(relay);
            }
            relays.push(msg_relays);
        }
        self.barrier();
        for ((_, dst, words), msg_relays) in msgs.iter().zip(&relays) {
            for (w, &relay) in words.iter().zip(msg_relays) {
                if charge_headers {
                    self.t.send(relay, *dst, &[*w, *dst as Word]);
                } else {
                    self.t.send(relay, *dst, &[*w]);
                }
            }
        }
        self.barrier();
        let mut inboxes = vec![vec![Vec::new(); n]; n];
        for (src, dst, words) in msgs {
            inboxes[dst][src].extend(words);
        }
        self.out.delivered.push(inboxes);
    }

    /// The historical `gossip_inner` (unicast mode): one `send` per word in
    /// phase A, then one broadcast slab per relay.
    fn gossip(&mut self, contributions: Vec<Vec<Word>>) {
        let n = self.n;
        let mut assigned: Vec<Vec<Word>> = vec![Vec::new(); n];
        for (src, words) in contributions.iter().enumerate() {
            for (j, w) in words.iter().enumerate() {
                let relay =
                    splitmix(self.cfg.route_seed ^ ((src as u64) << 32) ^ j as u64) as usize % n;
                assigned[relay].push(*w);
                self.t.send(src, relay, &[*w]);
            }
        }
        self.barrier();
        for (r, slab) in assigned.into_iter().enumerate() {
            if !slab.is_empty() {
                self.t.broadcast(r, slab.into());
            }
        }
        self.barrier();
        self.out
            .delivered
            .push(vec![vec![contributions.into_iter().flatten().collect()]]);
    }
}

/// A seeded pattern mixing self-addressed messages, empty payloads,
/// repeated `(src, dst)` messages, and one hot link (node 0 to node 1).
fn pattern(seed: u64, n: usize, v: usize) -> Vec<(usize, Vec<Word>)> {
    let h = splitmix(seed ^ v as u64);
    let mut msgs = Vec::new();
    for k in 0..h % 7 {
        let hk = splitmix(h ^ k);
        let dst = match hk % 5 {
            0 => v,           // self-addressed
            1 => (v + 1) % n, // repeated: every v hits its successor often
            _ => (hk >> 8) as usize % n,
        };
        let len = (hk >> 24) % 10; // 0 is an empty payload
        msgs.push((dst, (0..len).map(|j| hk ^ (j << 40)).collect()));
    }
    if v == 0 {
        msgs.push((1, (0..3 * n as u64).map(|j| seed ^ j).collect()));
    }
    msgs
}

fn contribution(seed: u64, v: usize) -> Vec<Word> {
    let h = splitmix(seed ^ ((v as u64) << 8));
    (0..h % 13).map(|j| h.wrapping_add(j)).collect()
}

/// The clique's side of an outcome: delivered words per `(dst, src)`.
fn inboxes_of(ib: &cc_clique::Inboxes) -> Vec<Vec<Vec<Word>>> {
    let n = ib.n();
    (0..n)
        .map(|dst| (0..n).map(|src| ib.received(dst, src).to_vec()).collect())
        .collect()
}

fn check(n: usize, transport: TransportKind, relay_policy: RelayPolicy) {
    let cfg = CliqueConfig {
        record_patterns: true,
        relay_policy,
        transport,
        netsim: NetsimConfig::default(),
        ..CliqueConfig::default()
    };
    let mut clique = Clique::with_config(n, cfg.clone());
    let mut reference = Reference::new(n, &cfg);
    let mut got = Outcome::default();
    let per_node = |seed: u64| (0..n).map(|v| pattern(seed, n, v)).collect::<Vec<_>>();
    // Several calls on one clique, so the staging buffers are reused across
    // calls of different shapes.
    for (call, seed) in [11u64, 12, 13, 14, 15, 16].into_iter().enumerate() {
        let headers = matches!(call % 5, 1 | 3);
        let ib = match call % 5 {
            0 => clique.route(|v| pattern(seed, n, v)),
            1 => clique.route_dynamic(|v| pattern(seed, n, v)),
            2 => clique.route_par(|v| pattern(seed, n, v)),
            3 => clique.route_dynamic_par(|v| pattern(seed, n, v)),
            _ => {
                got.delivered
                    .push(vec![vec![clique.gossip(|v| contribution(seed, v))]]);
                reference.gossip((0..n).map(|v| contribution(seed, v)).collect());
                continue;
            }
        };
        got.delivered.push(inboxes_of(&ib));
        reference.route(per_node(seed), headers);
    }
    got.delivered
        .push(vec![vec![clique.gossip_par(|v| contribution(99, v))]]);
    reference.gossip((0..n).map(|v| contribution(99, v)).collect());

    got.rounds = clique.rounds();
    got.words = clique.stats().words();
    got.fingerprints = clique.stats().pattern_fingerprints().to_vec();
    got.epochs = clique.transport_epochs();
    assert_eq!(got.fingerprints.len(), 14, "two barriers per call");
    assert!(got.rounds > 0);
    assert_eq!(
        got,
        reference.out,
        "{} n={n} {relay_policy:?} diverged from the word-by-word router",
        clique.transport_name()
    );
}

#[test]
fn staged_primitives_match_word_by_word_router_in_memory() {
    for n in [2, 7, 16] {
        for policy in [RelayPolicy::TwoChoice, RelayPolicy::SingleHash] {
            check(n, TransportKind::InMemory, policy);
        }
    }
}

#[test]
fn staged_primitives_match_word_by_word_router_on_sockets() {
    for policy in [RelayPolicy::TwoChoice, RelayPolicy::SingleHash] {
        check(7, TransportKind::Socket { workers: 2 }, policy);
    }
}
