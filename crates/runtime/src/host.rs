//! The broker-host loop both runtimes share.
//!
//! Each broker runs on exactly one thread, which owns its
//! [`MobileBroker`] by value. The thread fires due protocol timers,
//! then takes the next [`Input`] off its inbox, and hands every output
//! batch to [`flush_outputs`]. Timers, the client [`Registry`], the
//! re-routing of commands for clients that moved away, and the
//! delivery and movement-event plumbing live here; a runtime supplies
//! only its [`BrokerLink`]: how a batch reaches a neighbour, how an
//! output batch ends, how an input reaches another broker's inbox, and
//! an optional periodic tick.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use transmob_broker::Hop;
use transmob_core::transport::{flush_outputs, Transport};
use transmob_core::{ClientOp, Message, MobileBroker, Output, TimerToken};
use transmob_pubsub::{BrokerId, ClientId, PublicationMsg};

use crate::MoveOutcome;

/// One item of a broker's inbox.
#[derive(Debug)]
pub(crate) enum Input {
    FromBroker(BrokerId, Vec<Message>),
    FromClient(ClientId, ClientOp),
    CreateClient(ClientId),
    Shutdown,
}

/// Where each client lives and where its notifications and movement
/// outcomes go; shared by the client handles and the broker threads.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    pub(crate) homes: BTreeMap<ClientId, BrokerId>,
    deliveries: BTreeMap<ClientId, Sender<PublicationMsg>>,
    move_events: BTreeMap<ClientId, Sender<MoveOutcome>>,
}

impl Registry {
    /// Registers client `id` at `broker` and returns the receiving ends
    /// of its notification and movement-outcome channels.
    ///
    /// # Panics
    ///
    /// Panics if the client id is already in use.
    pub(crate) fn register(
        &mut self,
        id: ClientId,
        broker: BrokerId,
    ) -> (Receiver<PublicationMsg>, Receiver<MoveOutcome>) {
        assert!(
            !self.homes.contains_key(&id),
            "client id {id} already in use"
        );
        let (dtx, drx) = unbounded();
        let (mtx, mrx) = unbounded();
        self.homes.insert(id, broker);
        self.deliveries.insert(id, dtx);
        self.move_events.insert(id, mtx);
        (drx, mrx)
    }
}

/// The runtime-specific half of a broker host.
pub(crate) trait BrokerLink {
    /// The client registry shared with the client handles.
    fn registry(&self) -> &RwLock<Registry>;
    /// Sends one batch to neighbour `to`.
    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>);
    /// Ends one output batch (TCP: one flush per link it wrote to).
    fn finish_batch(&mut self) {}
    /// Puts `input` into broker `to`'s inbox.
    fn forward(&self, to: BrokerId, input: Input);
    /// The period of [`BrokerLink::tick`], if the link needs one.
    fn tick_interval(&self) -> Option<Duration> {
        None
    }
    /// Periodic link upkeep (TCP: heartbeats and failure suspicion).
    fn tick(&mut self) {}
}

/// Runs `broker` until its inbox delivers [`Input::Shutdown`] or
/// disconnects. `initial` is dispatched before the first input: the
/// timers a recovered broker re-arms.
pub(crate) fn run(
    mut broker: MobileBroker,
    mut link: impl BrokerLink,
    initial: Vec<Output>,
    rx: Receiver<Input>,
) {
    let id = broker.id();
    let mut clock = Clock::new(link.tick_interval());
    dispatch(id, &mut link, &mut clock, initial);
    while let Some(event) = clock.next(&rx) {
        let outs = match event {
            Event::Timer(token) => broker.handle_timer(token),
            Event::Tick => {
                link.tick();
                continue;
            }
            Event::Input(Input::Shutdown) => return,
            Event::Input(Input::CreateClient(c)) => {
                broker.create_client(c);
                continue;
            }
            Event::Input(Input::FromClient(c, op)) if broker.client(c).is_none() => {
                // The client moved away while the command was in
                // flight; forward it to the current home (the registry
                // is updated before the source cleans up, so
                // re-resolution always progresses). A client gone
                // entirely drops the command.
                let home = link.registry().read().homes.get(&c).copied();
                if let Some(h) = home.filter(|&h| h != id) {
                    link.forward(h, Input::FromClient(c, op));
                }
                continue;
            }
            Event::Input(Input::FromClient(c, op)) => broker.client_op(c, op),
            Event::Input(Input::FromBroker(from, msgs)) => {
                broker.handle_batch(Hop::Broker(from), msgs)
            }
        };
        dispatch(id, &mut link, &mut clock, outs);
    }
}

fn dispatch<L: BrokerLink>(id: BrokerId, link: &mut L, clock: &mut Clock, outs: Vec<Output>) {
    flush_outputs(&mut Dispatch { id, link, clock }, outs);
    link.finish_batch();
}

/// [`Transport`] for one output batch: sends go to the link,
/// deliveries and movement events to the client channels, timers to
/// the host's clock.
struct Dispatch<'a, L> {
    id: BrokerId,
    link: &'a mut L,
    clock: &'a mut Clock,
}

impl<L: BrokerLink> Transport for Dispatch<'_, L> {
    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
        self.link.send_batch(to, msgs);
    }

    fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>) {
        let reg = self.link.registry().read();
        if let Some(tx) = reg.deliveries.get(&client) {
            for p in publications {
                let _ = tx.send(p);
            }
        }
    }

    fn control(&mut self, output: Output) {
        match output {
            Output::SetTimer { token, delay_ns } => {
                self.clock.set(token, Duration::from_nanos(delay_ns));
            }
            Output::CancelTimer { token } => self.clock.cancel(token),
            Output::MoveFinished {
                m,
                client,
                committed,
            } => {
                // The home registry was already flipped by the target's
                // `ClientArrived` for committed moves; here we only
                // signal the outcome to the client handle.
                let reg = self.link.registry().read();
                if let Some(tx) = reg.move_events.get(&client) {
                    let _ = tx.send(MoveOutcome { m, committed });
                }
            }
            Output::ClientArrived { m: _, client } => {
                // Commands issued from now on route to the new home.
                self.link.registry().write().homes.insert(client, self.id);
            }
            Output::Send { .. } | Output::DeliverToApp { .. } => {
                unreachable!("flush_outputs routes batchable effects to the batch verbs")
            }
        }
    }
}

/// What the host does next.
enum Event {
    Timer(TimerToken),
    Tick,
    Input(Input),
}

/// The host's protocol timers plus the link's periodic tick.
struct Clock {
    heap: BinaryHeap<Reverse<(Instant, TimerToken)>>,
    /// The live deadline of each armed token. A heap entry fires only
    /// while it still matches: cancelling removes the token and
    /// re-arming replaces its deadline, so a stale entry is skipped
    /// and a token fires at most once per arming.
    armed: BTreeMap<TimerToken, Instant>,
    /// The tick period and the next tick.
    tick: Option<(Duration, Instant)>,
}

impl Clock {
    fn new(tick: Option<Duration>) -> Self {
        Clock {
            heap: BinaryHeap::new(),
            armed: BTreeMap::new(),
            tick: tick.map(|every| (every, Instant::now() + every)),
        }
    }

    fn set(&mut self, token: TimerToken, delay: Duration) {
        let at = Instant::now() + delay;
        self.armed.insert(token, at);
        self.heap.push(Reverse((at, token)));
    }

    fn cancel(&mut self, token: TimerToken) {
        self.armed.remove(&token);
    }

    /// The next event: a due timer first, then a due tick, then the
    /// next input, waiting for whichever comes first. `None` once the
    /// inbox is disconnected.
    fn next(&mut self, rx: &Receiver<Input>) -> Option<Event> {
        loop {
            let now = Instant::now();
            while let Some(&Reverse((at, token))) = self.heap.peek() {
                if at > now {
                    break;
                }
                self.heap.pop();
                if self.armed.get(&token) == Some(&at) {
                    self.armed.remove(&token);
                    return Some(Event::Timer(token));
                }
            }
            if let Some((every, next_tick)) = &mut self.tick {
                if *next_tick <= now {
                    *next_tick = now + *every;
                    return Some(Event::Tick);
                }
            }
            let timer = self.heap.peek().map(|Reverse((at, _))| *at);
            let deadline = timer.into_iter().chain(self.tick.map(|t| t.1)).min();
            let Some(deadline) = deadline else {
                return rx.recv().ok().map(Event::Input);
            };
            match rx.recv_timeout(deadline.saturating_duration_since(now)) {
                Ok(input) => return Some(Event::Input(input)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_core::TimerKind;
    use transmob_pubsub::MoveId;

    fn token(m: u64) -> TimerToken {
        TimerToken {
            m: MoveId(m),
            kind: TimerKind::Negotiate,
        }
    }

    /// Drains `clock` over an inbox holding `inputs`, once every timer
    /// armed so far is due, and names each event in order.
    fn events(mut clock: Clock, inputs: Vec<Input>) -> Vec<String> {
        let (tx, rx) = unbounded();
        for input in inputs {
            tx.send(input).expect("inbox open");
        }
        drop(tx);
        std::thread::sleep(Duration::from_millis(5));
        let mut seen = Vec::new();
        while let Some(event) = clock.next(&rx) {
            seen.push(match event {
                Event::Timer(t) => format!("timer {}", t.m.0),
                Event::Tick => "tick".to_string(),
                Event::Input(Input::CreateClient(c)) => format!("input {}", c.0),
                Event::Input(_) => "input".to_string(),
            });
        }
        seen
    }

    #[test]
    fn set_timer_fires_exactly_once() {
        let mut clock = Clock::new(None);
        clock.set(token(1), Duration::ZERO);
        assert_eq!(events(clock, Vec::new()), ["timer 1"]);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut clock = Clock::new(None);
        clock.set(token(1), Duration::ZERO);
        clock.cancel(token(1));
        assert!(events(clock, Vec::new()).is_empty());
    }

    #[test]
    fn timer_set_cancelled_and_set_again_fires_once() {
        let mut clock = Clock::new(None);
        clock.set(token(1), Duration::ZERO);
        clock.cancel(token(1));
        clock.set(token(1), Duration::from_millis(1));
        assert_eq!(events(clock, Vec::new()), ["timer 1"]);
    }

    #[test]
    fn due_timers_fire_before_the_next_queued_input() {
        let mut clock = Clock::new(None);
        clock.set(token(1), Duration::ZERO);
        clock.set(token(2), Duration::from_millis(1));
        assert_eq!(
            events(clock, vec![Input::CreateClient(ClientId(7))]),
            ["timer 1", "timer 2", "input 7"]
        );
    }
}
