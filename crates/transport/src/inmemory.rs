//! The single-process shared-memory backend: the historical destination-major
//! sharded flush, behind the [`Transport`] trait.

use crate::pending::Pending;
use crate::{merge_loads, Delivered, RoundDelivery, Transport};
use cc_runtime::{Executor, Word};
use std::sync::Arc;

/// The classical fabric: queued traffic lives in a destination-major queue
/// matrix and the barrier drains it with a flush **sharded by destination**
/// on the configured [`Executor`] — each piece is one destination's
/// contiguous block of `n` per-source queues, owned by exactly one worker.
/// Loads merge back into canonical `(src, dst)` order, so round counts and
/// pattern fingerprints are identical to sequential execution (and to every
/// other backend).
///
/// Broadcast slabs are delivered zero-copy: every recipient's
/// [`Delivered::broadcast`] lane references the sender's `Arc<[Word]>`
/// allocation.
#[derive(Debug)]
pub struct InMemoryTransport {
    pending: Pending,
    exec: Executor,
    epoch: u64,
}

impl InMemoryTransport {
    /// Creates the fabric for `n` nodes, flushing on `exec`.
    #[must_use]
    pub fn new(n: usize, exec: Executor) -> Self {
        Self {
            pending: Pending::new(n),
            exec,
            epoch: 0,
        }
    }
}

impl Transport for InMemoryTransport {
    fn name(&self) -> &'static str {
        "inmemory"
    }

    fn n(&self) -> usize {
        self.pending.n()
    }

    fn send(&mut self, src: usize, dst: usize, words: &[Word]) {
        self.pending.send(src, dst, words);
    }

    fn send_vec(&mut self, src: usize, dst: usize, words: Vec<Word>) {
        self.pending.send_vec(src, dst, words);
    }

    fn broadcast(&mut self, src: usize, slab: Arc<[Word]>) {
        self.pending.broadcast(src, slab);
    }

    fn finish_round(&mut self) -> RoundDelivery {
        let n = self.pending.n();
        let bcast_words = self.pending.bcast_words();
        let bcasts = self.pending.take_bcasts();
        /// One destination's barrier result: its link loads and its
        /// assembled delivery.
        type DstFlush = (Vec<(usize, usize, usize)>, Delivered);

        let per_dst: Vec<DstFlush> =
            self.exec
                .map_chunks_mut(&mut self.pending.queues, n, |dst, block| {
                    let mut loads = Vec::new();
                    let mut unicast = Vec::with_capacity(n);
                    let mut broadcast = vec![Vec::new(); n];
                    for (src, q) in block.iter_mut().enumerate() {
                        let words = std::mem::take(q);
                        let charged = if src == dst {
                            0 // self messages are local moves and free
                        } else {
                            words.len() + bcast_words[src]
                        };
                        if charged > 0 {
                            loads.push((src, dst, charged));
                        }
                        unicast.push(words);
                        if !bcasts[src].is_empty() {
                            // Zero-copy: recipients share the sender's slabs.
                            broadcast[src] = bcasts[src].clone();
                        }
                    }
                    (loads, Delivered { unicast, broadcast })
                });

        let mut all_loads = Vec::new();
        let mut inboxes = Vec::with_capacity(n);
        for (loads, delivered) in per_dst {
            all_loads.extend(loads);
            inboxes.push(delivered);
        }
        self.epoch += 1;
        RoundDelivery {
            inboxes,
            loads: merge_loads(n, &all_loads),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_runtime::ExecutorKind;

    fn seq(n: usize) -> InMemoryTransport {
        InMemoryTransport::new(n, Executor::new(ExecutorKind::Sequential))
    }

    #[test]
    fn rounds_equal_max_link_queue_and_queues_drain() {
        let mut t = seq(3);
        t.send(0, 1, &[1, 2, 3]);
        t.send(1, 2, &[4]);
        t.send(2, 0, &[5, 6]);
        let rd = t.finish_round();
        assert_eq!(rd.loads.rounds(), 3);
        assert_eq!(rd.loads.words(), 6);
        assert_eq!(rd.inboxes[1].unicast[0], vec![1, 2, 3]);
        assert_eq!(rd.inboxes[2].unicast[1], vec![4]);
        assert_eq!(rd.inboxes[0].unicast[2], vec![5, 6]);
        assert_eq!(t.epoch(), 1);
        let empty = t.finish_round();
        assert_eq!(empty.loads.rounds(), 0);
        assert_eq!(t.epoch(), 2);
    }

    #[test]
    fn self_messages_are_delivered_free() {
        let mut t = seq(2);
        t.send(0, 0, &[7, 8, 9]);
        t.send(0, 1, &[1]);
        let rd = t.finish_round();
        assert_eq!(rd.loads.rounds(), 1);
        assert_eq!(rd.loads.words(), 1);
        assert_eq!(rd.inboxes[0].unicast[0], vec![7, 8, 9]);
    }

    #[test]
    fn broadcast_slabs_are_shared_and_charged_per_link() {
        let mut t = seq(4);
        let slab: Arc<[Word]> = vec![5, 6].into();
        t.broadcast(1, slab.clone());
        let rd = t.finish_round();
        // 2 words on each of the 3 outgoing links.
        assert_eq!(rd.loads.rounds(), 2);
        assert_eq!(rd.loads.words(), 6);
        for dst in 0..4 {
            assert_eq!(rd.inboxes[dst].broadcast[1].len(), 1, "self included");
            assert!(
                Arc::ptr_eq(&rd.inboxes[dst].broadcast[1][0], &slab),
                "delivery must share the sender's allocation"
            );
        }
    }

    #[test]
    fn parallel_flush_matches_sequential() {
        let fill = |t: &mut InMemoryTransport| {
            for src in 0..7 {
                for dst in 0..7 {
                    if (src + 2 * dst) % 3 == 0 {
                        let words: Vec<Word> = (0..(src + dst) as u64 % 5)
                            .map(|w| w + 10 * src as u64)
                            .collect();
                        t.send(src, dst, &words);
                    }
                }
            }
            t.send(0, 1, &[99, 98, 97]);
            t.broadcast(3, vec![1, 2, 3].into());
        };
        let mut a = seq(7);
        fill(&mut a);
        let ra = a.finish_round();
        let mut b = InMemoryTransport::new(
            7,
            Executor::with_cutover(ExecutorKind::Parallel { threads: 3 }, 0),
        );
        fill(&mut b);
        let rb = b.finish_round();
        assert_eq!(ra, rb, "sharded flush must match the serial walk");
    }
}
