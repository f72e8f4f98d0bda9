//! The cross-thread backend: one OS thread and one MPSC inbox queue per
//! simulated node, rounds delimited by an epoch rendezvous.

use crate::frame::Frame;
use crate::pending::Pending;
use crate::{merge_loads, Delivered, RoundDelivery, Transport};
use cc_runtime::Word;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One node's barrier contribution: its id, the epoch it is committing,
/// its assembled delivery, and its per-link accounting (entries
/// `(src, self, words)` in `src` order).
type NodeCommit = (usize, u64, Delivered, Vec<(usize, usize, usize)>);

/// Cross-thread message passing: each simulated node is an OS thread owning
/// an MPSC inbox queue of encoded [`Frame`]s (the same wire format the
/// socket backend puts on the wire, so the codec is exercised on this lane
/// too). Per round, the parent feeds every node its incoming frames and a
/// `RoundEnd` delimiter; each node assembles its delivery and accounting
/// off-thread and answers through a shared commit channel. The round
/// barrier is the **epoch rendezvous**: `finish_round` returns only after
/// all `n` nodes have committed the current epoch, and every frame and
/// commit carries the epoch so a desynchronised round fails loudly instead
/// of silently corrupting a product.
#[derive(Debug)]
pub struct ChannelTransport {
    pending: Pending,
    epoch: u64,
    /// Per-node inbox queues (frame bytes).
    inboxes: Vec<Sender<Vec<u8>>>,
    /// Shared commit channel the rendezvous collects from.
    commits: Receiver<NodeCommit>,
    workers: Vec<JoinHandle<()>>,
    /// Encoded payload/broadcast bytes the parent posted onto node queues —
    /// this backend is star-shaped too, just over thread queues.
    orchestrator_bytes: u64,
}

impl ChannelTransport {
    /// Creates the fabric, spawning one node thread per simulated node.
    /// Threads park on their inbox queue between rounds and are joined on
    /// drop.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let (commit_tx, commits) = mpsc::channel::<NodeCommit>();
        let mut inboxes = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for node in 0..n {
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            let commit_tx = commit_tx.clone();
            inboxes.push(tx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cc-node-{node}"))
                    .spawn(move || node_loop(node, n, &rx, &commit_tx))
                    .expect("spawn node thread"),
            );
        }
        Self {
            pending: Pending::new(n),
            epoch: 0,
            inboxes,
            commits,
            workers,
            orchestrator_bytes: 0,
        }
    }

    fn post(&self, node: usize, bytes: Vec<u8>) {
        self.inboxes[node]
            .send(bytes)
            .expect("node thread hung up mid-simulation");
    }

    /// Receives one commit, failing loudly if any node thread has died
    /// instead of committing. A plain blocking `recv` would deadlock here:
    /// with `n ≥ 2` the surviving threads keep the shared commit channel
    /// open, so a single panicked node would leave the rendezvous waiting
    /// forever rather than surfacing the panic.
    fn recv_commit(&self) -> NodeCommit {
        loop {
            match self
                .commits
                .recv_timeout(std::time::Duration::from_millis(50))
            {
                Ok(commit) => return commit,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for (node, h) in self.workers.iter().enumerate() {
                        assert!(
                            !h.is_finished(),
                            "node thread {node} died before committing the round"
                        );
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("all node threads died before committing the round")
                }
            }
        }
    }
}

impl Transport for ChannelTransport {
    fn name(&self) -> &'static str {
        "channel"
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
        let epoch = self.epoch;
        // Feed every node its incoming links (src order), then the
        // broadcast slabs, then the round delimiter.
        for dst in 0..n {
            for src in 0..n {
                let words = std::mem::take(&mut self.pending.queues[dst * n + src]);
                if words.is_empty() {
                    continue;
                }
                let frame = Frame::Payload {
                    epoch,
                    src: src as u32,
                    dst: dst as u32,
                    words,
                };
                let bytes = frame.encode();
                self.orchestrator_bytes += bytes.len() as u64;
                self.post(dst, bytes);
            }
        }
        for (src, slabs) in self.pending.take_bcasts().into_iter().enumerate() {
            for slab in slabs {
                let bytes = Frame::Bcast {
                    epoch,
                    src: src as u32,
                    words: slab.to_vec(),
                }
                .encode();
                for dst in 0..n {
                    self.orchestrator_bytes += bytes.len() as u64;
                    self.post(dst, bytes.clone());
                }
            }
        }
        let end = Frame::RoundEnd { epoch }.encode();
        for dst in 0..n {
            self.post(dst, end.clone());
        }

        // Epoch rendezvous: every node must commit this round before it is
        // delivered and charged.
        let mut inboxes: Vec<Option<Delivered>> = (0..n).map(|_| None).collect();
        let mut all_loads = Vec::new();
        for _ in 0..n {
            let (node, e, delivered, loads) = self.recv_commit();
            assert_eq!(e, epoch, "node {node} committed a different epoch");
            assert!(inboxes[node].is_none(), "node {node} committed twice");
            inboxes[node] = Some(delivered);
            all_loads.extend(loads);
        }
        self.epoch += 1;
        RoundDelivery {
            inboxes: inboxes
                .into_iter()
                .map(|d| d.expect("every node committed"))
                .collect(),
            loads: merge_loads(n, &all_loads),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn orchestrator_bytes(&self) -> u64 {
        self.orchestrator_bytes
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        let bytes = Frame::Shutdown.encode();
        for tx in &self.inboxes {
            // A node that already exited (e.g. after a panic) has dropped
            // its receiver; that is fine during teardown.
            let _ = tx.send(bytes.clone());
        }
        for h in self.workers.drain(..) {
            if h.join().is_err() && !std::thread::panicking() {
                panic!("channel transport node thread panicked");
            }
        }
    }
}

/// One node's receive loop: buffer the epoch's frames, and on the round
/// delimiter assemble the delivery and accounting and commit.
fn node_loop(me: usize, n: usize, rx: &Receiver<Vec<u8>>, commit: &Sender<NodeCommit>) {
    let mut epoch = 0u64;
    'rounds: loop {
        let mut delivered = Delivered::empty(n);
        loop {
            let Ok(bytes) = rx.recv() else {
                return; // parent dropped the transport
            };
            match Frame::decode(&bytes).expect("malformed frame on node inbox queue") {
                Frame::Payload {
                    epoch: e,
                    src,
                    dst,
                    words,
                } => {
                    assert_eq!(e, epoch, "node {me}: payload from a different epoch");
                    assert_eq!(dst as usize, me, "node {me}: misrouted payload");
                    let lane = &mut delivered.unicast[src as usize];
                    if lane.is_empty() {
                        *lane = words;
                    } else {
                        lane.extend(words);
                    }
                }
                Frame::Bcast {
                    epoch: e,
                    src,
                    words,
                } => {
                    assert_eq!(e, epoch, "node {me}: broadcast from a different epoch");
                    delivered.broadcast[src as usize].push(words.into());
                }
                Frame::RoundEnd { epoch: e } => {
                    assert_eq!(e, epoch, "node {me}: round delimiter epoch mismatch");
                    break;
                }
                Frame::Shutdown => return,
                other => panic!("node {me}: unexpected frame {other:?}"),
            }
        }
        let mut loads = Vec::new();
        for src in 0..n {
            if src == me {
                continue; // self messages are local moves and free
            }
            let words = delivered.unicast[src].len()
                + delivered.broadcast[src]
                    .iter()
                    .map(|s| s.len())
                    .sum::<usize>();
            if words > 0 {
                loads.push((src, me, words));
            }
        }
        if commit.send((me, epoch, delivered, loads)).is_err() {
            break 'rounds; // parent gone
        }
        epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_unicast_and_broadcast_with_inmemory_accounting() {
        let mut t = ChannelTransport::new(4);
        t.send(0, 1, &[1, 2, 3]);
        t.send(0, 1, &[4]); // concatenates in send order
        t.send(2, 2, &[9]); // self: delivered, free
        t.broadcast(3, vec![7, 7].into());
        let rd = t.finish_round();
        assert_eq!(rd.inboxes[1].unicast[0], vec![1, 2, 3, 4]);
        assert_eq!(rd.inboxes[2].unicast[2], vec![9]);
        for dst in 0..4 {
            assert_eq!(rd.inboxes[dst].broadcast[3].len(), 1);
            assert_eq!(&*rd.inboxes[dst].broadcast[3][0], &[7, 7]);
        }
        // Loads: (0,1,4) plus (3,d,2) for d != 3, canonical order.
        let got: Vec<_> = rd.loads.iter().collect();
        assert_eq!(got, vec![(0, 1, 4), (3, 0, 2), (3, 1, 2), (3, 2, 2)]);
        assert_eq!(rd.loads.rounds(), 4);
        assert_eq!(t.epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "died before committing")]
    fn a_dead_node_thread_fails_the_rendezvous_loudly() {
        // The deadlock regression: with n >= 2, one panicked node thread
        // leaves the shared commit channel open (the survivors hold sender
        // clones), so a plain blocking recv would hang the barrier forever.
        // The rendezvous must notice the death and panic instead.
        let mut t = ChannelTransport::new(3);
        t.inboxes[1]
            .send(vec![255, 0, 0]) // garbage frame: node 1 panics on decode
            .unwrap();
        let _ = t.finish_round();
    }

    #[test]
    fn empty_rounds_rendezvous_cleanly() {
        let mut t = ChannelTransport::new(3);
        for expected in 1..=5u64 {
            let rd = t.finish_round();
            assert_eq!(rd.loads.words(), 0);
            assert!(rd
                .inboxes
                .iter()
                .all(|d| d.unicast.iter().all(Vec::is_empty)));
            assert_eq!(t.epoch(), expected);
        }
    }
}
