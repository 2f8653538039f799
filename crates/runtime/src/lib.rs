//! # transmob-runtime
//!
//! A *threaded deployment* of the transmob stack: every broker of the
//! overlay runs as an OS thread hosting the same
//! [`MobileBroker`] state machine the
//! simulator drives, exchanging messages over crossbeam channels. This
//! is the "real system" face of the reproduction: the examples and the
//! integration tests run the movement protocols over genuinely
//! concurrent brokers with wall-clock protocol timers.
//!
//! The entry point is [`Network`]; clients are driven through
//! [`Client`] handles:
//!
//! ```
//! use transmob_runtime::Network;
//! use transmob_broker::Topology;
//! use transmob_core::{MobileBrokerConfig, ProtocolKind};
//! use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
//! use std::time::Duration;
//!
//! let net = Network::builder()
//!     .overlay(Topology::chain(3))
//!     .options(MobileBrokerConfig::reconfig())
//!     .start();
//! let publisher = net.create_client(BrokerId(1), ClientId(1));
//! let subscriber = net.create_client(BrokerId(3), ClientId(2));
//! publisher.advertise(Filter::builder().ge("x", 0).build());
//! subscriber.subscribe(Filter::builder().ge("x", 0).build());
//! std::thread::sleep(Duration::from_millis(50));
//! publisher.publish(Publication::new().with("x", 7));
//! let n = subscriber.recv_timeout(Duration::from_secs(2)).expect("delivery");
//! assert_eq!(n.publisher, ClientId(1));
//! // Move the subscriber; deliveries continue at the new broker.
//! assert!(subscriber.move_to(BrokerId(1), ProtocolKind::Reconfig, Duration::from_secs(5)));
//! publisher.publish(Publication::new().with("x", 8));
//! assert!(subscriber.recv_timeout(Duration::from_secs(2)).is_some());
//! net.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod host;
pub mod tcp;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use transmob_broker::{OverlayBuilder, Topology};
use transmob_core::{
    ClientOp, Message, MobileBroker, MobileBrokerConfig, NetworkOptions, ProtocolKind,
};
use transmob_pubsub::{BrokerId, ClientId, Filter, MoveId, Publication, PublicationMsg};

use host::{BrokerLink, Input, Registry};

/// The outcome of a movement, delivered to the issuing client's handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveOutcome {
    /// The movement transaction id.
    pub m: MoveId,
    /// Whether the client now runs at the target.
    pub committed: bool,
}

#[derive(Debug)]
struct Shared {
    topology: Arc<Topology>,
    senders: BTreeMap<BrokerId, Sender<Input>>,
    registry: RwLock<Registry>,
}

/// A running broker network: one thread per broker, each running the
/// shared host loop over in-process channels.
///
/// Shut it down explicitly with [`Network::shutdown`]; dropping the
/// handle also stops the threads (without blocking indefinitely on a
/// healthy network).
#[derive(Debug)]
pub struct Network {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Network {
    /// The builder entry point: `Network::builder().overlay(..)
    /// .options(..).start()`.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    fn from_parts(topology: Topology, config: MobileBrokerConfig) -> Self {
        let topology = Arc::new(topology);
        let mut senders = BTreeMap::new();
        let mut receivers = BTreeMap::new();
        for b in topology.brokers() {
            let (tx, rx) = unbounded();
            senders.insert(b, tx);
            receivers.insert(b, rx);
        }
        let shared = Arc::new(Shared {
            topology: Arc::clone(&topology),
            senders,
            registry: RwLock::new(Registry::default()),
        });
        let handles = receivers
            .into_iter()
            .map(|(b, rx)| {
                let broker = MobileBroker::new(b, Arc::clone(&topology), config.clone());
                let link = ChannelLink {
                    id: b,
                    shared: Arc::clone(&shared),
                };
                std::thread::Builder::new()
                    .name(format!("broker-{b}"))
                    .spawn(move || host::run(broker, link, Vec::new(), rx))
                    .expect("spawn broker thread")
            })
            .collect();
        Network { shared, handles }
    }

    /// The overlay topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Creates (attaches and starts) a client at `broker` and returns
    /// its handle.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is not in the topology or the client id is
    /// already in use.
    pub fn create_client(&self, broker: BrokerId, id: ClientId) -> Client {
        let (deliveries, moves) = self.shared.registry.write().register(id, broker);
        self.shared.senders[&broker]
            .send(Input::CreateClient(id))
            .expect("broker thread alive");
        Client {
            id,
            shared: Arc::clone(&self.shared),
            deliveries,
            moves,
        }
    }

    /// The broker currently hosting `client` (its command target).
    pub fn home_of(&self, client: ClientId) -> Option<BrokerId> {
        self.shared.registry.read().homes.get(&client).copied()
    }

    /// Stops all broker threads and waits for them to finish.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        for tx in self.shared.senders.values() {
            let _ = tx.send(Input::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// A handle to a client hosted somewhere in the network. Commands are
/// routed to whatever broker currently hosts the client; notifications
/// arrive on the handle's delivery channel.
#[derive(Debug)]
pub struct Client {
    id: ClientId,
    shared: Arc<Shared>,
    deliveries: Receiver<PublicationMsg>,
    moves: Receiver<MoveOutcome>,
}

impl Client {
    /// The client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    fn send_op(&self, op: ClientOp) {
        let home = self
            .shared
            .registry
            .read()
            .homes
            .get(&self.id)
            .copied()
            .expect("client registered");
        let _ = self.shared.senders[&home].send(Input::FromClient(self.id, op));
    }

    /// Issues a subscription.
    pub fn subscribe(&self, filter: Filter) {
        self.send_op(ClientOp::Subscribe(filter));
    }

    /// Withdraws the subscription with client-local sequence `seq`
    /// (subscriptions are numbered 0, 1, ... in issue order).
    pub fn unsubscribe(&self, seq: u32) {
        self.send_op(ClientOp::Unsubscribe(seq));
    }

    /// Issues an advertisement.
    pub fn advertise(&self, filter: Filter) {
        self.send_op(ClientOp::Advertise(filter));
    }

    /// Withdraws the advertisement with client-local sequence `seq`.
    pub fn unadvertise(&self, seq: u32) {
        self.send_op(ClientOp::Unadvertise(seq));
    }

    /// Publishes a publication.
    pub fn publish(&self, content: Publication) {
        self.send_op(ClientOp::Publish(content));
    }

    /// Application-level pause: notifications buffer at the broker and
    /// commands queue until [`Client::resume`].
    pub fn pause(&self) {
        self.send_op(ClientOp::Pause);
    }

    /// Resumes from an application-level pause.
    pub fn resume(&self) {
        self.send_op(ClientOp::Resume);
    }

    /// Requests a movement and waits up to `timeout` for it to finish.
    /// Returns `true` if the movement committed (the client now runs
    /// at `target`).
    pub fn move_to(&self, target: BrokerId, protocol: ProtocolKind, timeout: Duration) -> bool {
        self.send_op(ClientOp::MoveTo(target, protocol));
        match self.moves.recv_timeout(timeout) {
            Ok(outcome) => outcome.committed,
            Err(_) => false,
        }
    }

    /// Requests a movement without waiting (the outcome arrives via
    /// [`Client::next_move_outcome`]).
    pub fn move_to_async(&self, target: BrokerId, protocol: ProtocolKind) {
        self.send_op(ClientOp::MoveTo(target, protocol));
    }

    /// Waits for the next movement outcome.
    pub fn next_move_outcome(&self, timeout: Duration) -> Option<MoveOutcome> {
        self.moves.recv_timeout(timeout).ok()
    }

    /// Receives the next notification, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<PublicationMsg> {
        self.deliveries.recv_timeout(timeout).ok()
    }

    /// Receives a notification if one is already queued.
    pub fn try_recv(&self) -> Option<PublicationMsg> {
        self.deliveries.try_recv().ok()
    }

    /// Drains all currently queued notifications.
    pub fn drain(&self) -> Vec<PublicationMsg> {
        let mut out = Vec::new();
        while let Ok(p) = self.deliveries.try_recv() {
            out.push(p);
        }
        out
    }
}

/// [`BrokerLink`] over the in-process crossbeam channels: a send batch
/// rides one [`Input::FromBroker`] into the neighbour's inbox.
struct ChannelLink {
    id: BrokerId,
    shared: Arc<Shared>,
}

impl BrokerLink for ChannelLink {
    fn registry(&self) -> &RwLock<Registry> {
        &self.shared.registry
    }

    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
        let _ = self.shared.senders[&to].send(Input::FromBroker(self.id, msgs));
    }

    fn forward(&self, to: BrokerId, input: Input) {
        let _ = self.shared.senders[&to].send(input);
    }
}

/// Builder for [`Network`] — the same `builder().overlay(..)
/// .options(..).start()` surface every driver exposes.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    overlay: OverlayBuilder,
    options: NetworkOptions,
}

impl NetworkBuilder {
    /// The overlay: an [`OverlayBuilder`] or a pre-built [`Topology`].
    pub fn overlay(mut self, overlay: impl Into<OverlayBuilder>) -> Self {
        self.overlay = overlay.into();
        self
    }

    /// Per-broker options ([`NetworkOptions`], [`MobileBrokerConfig`],
    /// or a bare `BrokerConfig`).
    pub fn options(mut self, options: impl Into<NetworkOptions>) -> Self {
        self.options = options.into();
        self
    }

    /// Starts the broker threads.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is invalid (empty, disconnected,
    /// duplicate edges) — use [`OverlayBuilder::build`] directly for
    /// the typed `TopologyError`.
    pub fn start(self) -> Network {
        let (topology, par) = self
            .overlay
            .into_parts()
            .expect("invalid overlay passed to Network::builder()");
        let mut config = self.options.config;
        if let Some(par) = par {
            config.broker.parallelism = par;
        }
        Network::from_parts(topology, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BrokerId {
        BrokerId(i)
    }
    fn c(i: u64) -> ClientId {
        ClientId(i)
    }
    fn range(lo: i64, hi: i64) -> Filter {
        Filter::builder().ge("x", lo).le("x", hi).build()
    }

    #[test]
    fn end_to_end_delivery() {
        let net = Network::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(4), c(2));
        p.advertise(range(0, 100));
        s.subscribe(range(0, 100));
        std::thread::sleep(Duration::from_millis(50));
        p.publish(Publication::new().with("x", 5));
        let got = s.recv_timeout(Duration::from_secs(2)).expect("delivery");
        assert_eq!(got.publisher, c(1));
        net.shutdown();
    }

    #[test]
    fn reconfig_move_over_threads() {
        let net = Network::builder()
            .overlay(Topology::chain(5))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(5), c(2));
        p.advertise(range(0, 100));
        s.subscribe(range(0, 100));
        std::thread::sleep(Duration::from_millis(50));
        assert!(s.move_to(b(2), ProtocolKind::Reconfig, Duration::from_secs(5)));
        assert_eq!(net.home_of(c(2)), Some(b(2)));
        p.publish(Publication::new().with("x", 5));
        assert!(s.recv_timeout(Duration::from_secs(2)).is_some());
        net.shutdown();
    }

    #[test]
    fn covering_move_over_threads() {
        let net = Network::builder()
            .overlay(Topology::chain(5))
            .options(MobileBrokerConfig::covering())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(5), c(2));
        p.advertise(range(0, 100));
        s.subscribe(range(0, 100));
        std::thread::sleep(Duration::from_millis(50));
        assert!(s.move_to(b(3), ProtocolKind::Covering, Duration::from_secs(5)));
        p.publish(Publication::new().with("x", 5));
        assert!(s.recv_timeout(Duration::from_secs(2)).is_some());
        net.shutdown();
    }

    #[test]
    fn no_duplicates_across_repeated_moves() {
        let net = Network::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(4), c(2));
        p.advertise(range(0, 100));
        s.subscribe(range(0, 100));
        std::thread::sleep(Duration::from_millis(50));
        let mut total = 0;
        for round in 0..3 {
            let dest = if round % 2 == 0 { b(1) } else { b(4) };
            assert!(s.move_to(dest, ProtocolKind::Reconfig, Duration::from_secs(5)));
            p.publish(Publication::new().with("x", round));
            total += 1;
        }
        std::thread::sleep(Duration::from_millis(200));
        let got = s.drain();
        assert_eq!(got.len(), total);
        let ids: std::collections::BTreeSet<_> = got.iter().map(|x| x.id).collect();
        assert_eq!(ids.len(), total, "duplicate deliveries");
        net.shutdown();
    }

    /// Contention on the broker threads: a publisher floods broker
    /// batches while the subscriber's movement transactions commit and
    /// rewrite the routing state along its path.
    /// Every move must commit, deliveries must stay duplicate-free,
    /// and routing must keep following the subscriber afterwards.
    #[test]
    fn publish_flood_during_moves_stays_consistent() {
        let net = Network::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(4), c(2));
        p.advertise(range(0, 100_000));
        s.subscribe(range(0, 100_000));
        std::thread::sleep(Duration::from_millis(50));

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flood = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0i64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    p.publish(Publication::new().with("x", x));
                    x += 1;
                    if x % 16 == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                p // keep the publisher handle alive for the epilogue
            })
        };
        for round in 0..4 {
            let dest = if round % 2 == 0 { b(2) } else { b(4) };
            assert!(
                s.move_to(dest, ProtocolKind::Reconfig, Duration::from_secs(10)),
                "move {round} must commit under the publish flood"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let p = flood.join().expect("flood thread");
        std::thread::sleep(Duration::from_millis(300));
        let got = s.drain();
        let ids: std::collections::BTreeSet<_> = got.iter().map(|x| x.id).collect();
        assert_eq!(
            ids.len(),
            got.len(),
            "duplicate deliveries under contention"
        );
        // Liveness epilogue: routing still follows the subscriber.
        p.publish(Publication::new().with("x", 99_999));
        assert!(
            s.recv_timeout(Duration::from_secs(3)).is_some(),
            "delivery after the contended move sequence"
        );
        net.shutdown();
    }

    #[test]
    fn drop_shuts_down_threads() {
        let net = Network::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let _cl = net.create_client(b(1), c(1));
        drop(net); // must not hang
    }
}
