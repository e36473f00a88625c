//! A deterministic simulator for the lease core: worker stubs and a
//! lossy network under a virtual clock. A seeded schedule of Hellos,
//! Results, heartbeats, duplicates, reorders, closes and clock jumps
//! past TTL and backoff runs in milliseconds, because nothing sleeps and
//! no thread waits on another.
//!
//! The simulator is the core's second adapter beside
//! [`coordinator::run`](crate::coordinator::run). It keeps the thread
//! adapter's contract: the core's reply goes back on the frame's own
//! connection, tick actions reach their connections, and the clock
//! jumps to [`Core::next_wake`] whenever nothing else can happen. If a
//! run is not finished and the core names no next wake, nothing could
//! ever move it again: the simulator reports that as a hang.

use crate::comm::CommError;
use crate::coordinator::{parse_spec, strip_trailer, CoordinatorConfig, JoinedArtifact};
use crate::frame::{Frame, Role};
use crate::lease::{Action, Core, Turn};
use crate::ServeError;
use perfport_core::shard::{run_grid_point, GridPoint, PointResult};
use perfport_core::{render_study_csv, study_grid, StudyConfig};
use proptest::test_runner::TestRng;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// A clock that moves only when told to.
pub(crate) struct VirtualClock {
    now: Instant,
}

impl VirtualClock {
    /// A clock at an arbitrary epoch.
    pub(crate) fn new() -> VirtualClock {
        VirtualClock {
            now: Instant::now(),
        }
    }

    pub(crate) fn now(&self) -> Instant {
        self.now
    }

    pub(crate) fn advance(&mut self, by: Duration) {
        self.now += by;
    }
}

/// The study grid a coordinator configured as `cfg` serves.
pub(crate) fn grid_of(cfg: &CoordinatorConfig) -> Vec<GridPoint> {
    let ids: Vec<&str> = cfg.ids.iter().map(String::as_str).collect();
    study_grid(&ids, &cfg.study_config())
}

/// The CSV fragment a worker returns for `range` of `grid`.
pub(crate) fn fragment(grid: &[GridPoint], study: &StudyConfig, range: Range<usize>) -> String {
    let results: Vec<_> = grid[range]
        .iter()
        .map(|p| run_grid_point(p, study))
        .collect();
    render_study_csv(&results, false)
}

/// A worker `Hello` carrying a placeholder manifest.
pub(crate) fn hello(ident: &str) -> Frame {
    Frame::Hello {
        role: Role::Worker,
        ident: ident.to_string(),
        detail: "{}".to_string(),
    }
}

/// One direction of a simulated connection. Sent frames may be
/// dropped, duplicated or held back until the next send (a reorder),
/// each with probability `rate` split evenly.
#[derive(Default)]
struct Link {
    queue: VecDeque<Frame>,
    held: Option<Frame>,
}

impl Link {
    fn send(&mut self, frame: Frame, rng: &mut TestRng, rate: f64, faults: &mut usize) {
        if rng.unit_f64() < rate {
            *faults += 1;
            match rng.next_u64() % 3 {
                0 => return,
                1 => self.queue.push_back(frame.clone()),
                _ if self.held.is_none() => {
                    self.held = Some(frame);
                    return;
                }
                _ => {}
            }
        }
        self.queue.push_back(frame);
        self.queue.extend(self.held.take());
    }

    /// Delivers a held-back frame once nothing else will be sent.
    fn flush(&mut self) -> bool {
        let held = self.held.take();
        let flushed = held.is_some();
        self.queue.extend(held);
        flushed
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.held = None;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not yet connected.
    Waiting,
    /// Connected, awaiting the coordinator's `Hello`.
    Hello,
    /// Computing leases in arrival order.
    Working,
    /// The connection is over.
    Gone,
}

/// A worker stub that follows [`worker::run`](crate::worker::run)'s
/// protocol one step at a time, computing points with `run_grid_point`.
struct Stub {
    ident: String,
    phase: Phase,
    conn: usize,
    up: Link,
    down: Link,
    /// The coordinator has dropped the connection: once `down` drains,
    /// the worker sees it closed, and nothing it sends is read.
    cut: bool,
    /// Heartbeat pacing from the coordinator's spec.
    beat_after: Duration,
    last_sent: Instant,
    /// The lease being computed: its id, range and points done.
    current: Option<(u64, Range<usize>, Vec<PointResult>)>,
}

impl Stub {
    fn connected(&self) -> bool {
        !matches!(self.phase, Phase::Waiting | Phase::Gone)
    }

    /// `true` while the stub has something to do.
    fn can_work(&self) -> bool {
        self.connected() && (self.current.is_some() || !self.down.queue.is_empty() || self.cut)
    }
}

/// One simulated run's shape.
#[derive(Debug, Clone)]
struct Case {
    workers: usize,
    /// Workers that connect only after the run has started.
    late: usize,
    lease_points: usize,
    seed: u64,
    /// Chance that a sent frame is dropped, duplicated or reordered.
    rate: f64,
    /// Chance per step that the clock jumps. A connection breaks with a
    /// chance per step of `rate / 32`.
    jump_rate: f64,
    deadline: bool,
}

/// How a simulated run ended.
#[derive(Debug)]
enum Verdict {
    Joined(JoinedArtifact),
    Failed(ServeError),
    /// Unfinished, with nothing left that could move the run.
    Hang,
    /// Still running after the step budget.
    Runaway,
}

const IDS: &[&str] = &["fig5c", "fig7a"];
const TTL: Duration = Duration::from_secs(1);
const BACKOFF: Duration = Duration::from_millis(40);
const MAX_STEPS: usize = 200_000;

struct Sim {
    core: Core,
    clock: VirtualClock,
    rng: TestRng,
    stubs: Vec<Stub>,
    grid: Vec<GridPoint>,
    study: StudyConfig,
    rate: f64,
    jump_rate: f64,
    /// Faults injected and clock jumps taken: a run with none must join.
    disturbances: usize,
}

impl Sim {
    fn new(case: &Case) -> Sim {
        let cfg = CoordinatorConfig {
            ids: IDS.iter().map(|s| s.to_string()).collect(),
            quick: true,
            lease_points: case.lease_points,
            ttl: TTL,
            backoff: BACKOFF,
            max_retries: 3,
            deadline: case.deadline.then_some(TTL * 12),
            verbose: false,
        };
        let clock = VirtualClock::new();
        let now = clock.now();
        let stubs = (0..case.workers)
            .map(|w| Stub {
                ident: format!("w{w}"),
                phase: Phase::Waiting,
                conn: usize::MAX,
                up: Link::default(),
                down: Link::default(),
                cut: false,
                beat_after: Duration::ZERO,
                last_sent: now,
                current: None,
            })
            .collect();
        Sim {
            core: Core::new(&cfg, now).expect("registered panels"),
            clock,
            rng: TestRng::from_seed(case.seed),
            stubs,
            grid: grid_of(&cfg),
            study: cfg.study_config(),
            rate: case.rate,
            jump_rate: case.jump_rate,
            disturbances: 0,
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn connect(&mut self, w: usize) {
        let now = self.clock.now();
        let stub = &mut self.stubs[w];
        stub.conn = self.core.on_connect(now, &stub.ident);
        stub.phase = Phase::Hello;
        stub.last_sent = now;
        let frame = hello(&stub.ident);
        stub.up
            .send(frame, &mut self.rng, self.rate, &mut self.disturbances);
        if self.stubs.iter().all(|s| s.phase != Phase::Waiting) {
            self.core.on_source_closed();
        }
    }

    /// Sends `frames` from the core to stub `w`.
    fn send_down(&mut self, w: usize, frames: Vec<Frame>) {
        let stub = &mut self.stubs[w];
        for frame in frames {
            stub.down
                .send(frame, &mut self.rng, self.rate, &mut self.disturbances);
        }
    }

    fn stub_of(&self, conn: usize) -> usize {
        self.stubs
            .iter()
            .position(|s| s.conn == conn)
            .expect("every connection belongs to a stub")
    }

    /// Ticks the core at the current instant and carries out its
    /// actions.
    fn tick(&mut self) -> Result<(), ServeError> {
        for action in self.core.on_tick(self.clock.now())? {
            match action {
                Action::Send { conn, frames } => {
                    let w = self.stub_of(conn);
                    self.send_down(w, frames);
                }
                Action::Close { conn } => {
                    let w = self.stub_of(conn);
                    self.stubs[w].cut = true;
                }
            }
        }
        Ok(())
    }

    /// Delivers stub `w`'s next frame to the core.
    fn deliver(&mut self, w: usize) -> Result<(), ServeError> {
        let now = self.clock.now();
        let stub = &mut self.stubs[w];
        let Some(frame) = stub.up.queue.pop_front() else {
            return Ok(());
        };
        if stub.cut {
            return Ok(());
        }
        let reply = self.core.on_frame(now, stub.conn, frame)?;
        self.send_down(w, reply.frames);
        if reply.turn == Turn::Closed {
            self.stubs[w].cut = true;
            // A dropped connection wakes the thread adapter's run thread.
            self.tick()?;
        }
        Ok(())
    }

    /// Breaks stub `w`'s connection: both ends see it closed.
    fn close(&mut self, w: usize) -> Result<(), ServeError> {
        let now = self.clock.now();
        let stub = &mut self.stubs[w];
        stub.phase = Phase::Gone;
        stub.up.clear();
        stub.down.clear();
        self.core.on_lost(now, stub.conn, &CommError::Closed)?;
        self.tick()
    }

    /// The stub sends `frame` to the core.
    fn send_up(&mut self, w: usize, frame: Frame) {
        let now = self.clock.now();
        let stub = &mut self.stubs[w];
        stub.last_sent = now;
        stub.up
            .send(frame, &mut self.rng, self.rate, &mut self.disturbances);
    }

    /// A protocol error on the worker's side: it says why and hangs up.
    fn refuse(&mut self, w: usize, reason: String) -> Result<(), ServeError> {
        self.send_up(w, Frame::Bye { reason });
        self.stubs[w].up.flush();
        while !self.stubs[w].up.queue.is_empty() {
            self.deliver(w)?;
        }
        self.close(w)
    }

    /// One step of stub `w`'s worker loop.
    fn work(&mut self, w: usize) -> Result<(), ServeError> {
        let now = self.clock.now();
        let stub = &mut self.stubs[w];
        if let Some((lease_id, range, mut done)) = stub.current.take() {
            // Computes one point, heartbeating after a slow one.
            done.push(run_grid_point(
                &self.grid[range.start + done.len()],
                &self.study,
            ));
            if now.duration_since(stub.last_sent) >= stub.beat_after {
                let beat = Frame::Heartbeat {
                    lease_id,
                    done: done.len() as u64,
                };
                self.send_up(w, beat);
            }
            if done.len() < range.len() {
                self.stubs[w].current = Some((lease_id, range, done));
            } else {
                let result = Frame::Result {
                    lease_id,
                    start: range.start as u64,
                    end: range.end as u64,
                    csv: render_study_csv(&done, false),
                };
                self.send_up(w, result);
            }
            return Ok(());
        }
        let stub = &mut self.stubs[w];
        let Some(frame) = stub.down.queue.pop_front() else {
            // The coordinator dropped the connection.
            return self.close(w);
        };
        match (stub.phase, frame) {
            (
                Phase::Hello,
                Frame::Hello {
                    role: Role::Coordinator,
                    detail,
                    ..
                },
            ) => {
                let spec = parse_spec(&detail).expect("the core's spec parses");
                stub.beat_after = spec.ttl / 2;
                stub.phase = Phase::Working;
                Ok(())
            }
            (
                Phase::Working,
                Frame::Lease {
                    lease_id,
                    start,
                    end,
                },
            ) => {
                let range = start as usize..end as usize;
                if range.is_empty() || range.end > self.grid.len() {
                    return self.refuse(w, format!("lease {lease_id} exceeds the grid"));
                }
                stub.current = Some((lease_id, range, Vec::new()));
                Ok(())
            }
            (_, Frame::Bye { .. }) => self.close(w),
            (_, other) => self.refuse(w, format!("unexpected {} frame", other.name())),
        }
    }

    /// Nothing can happen without the clock: flush held-back frames,
    /// or jump to the core's next wake.
    fn idle(&mut self) -> Result<bool, ServeError> {
        let mut flushed = false;
        for stub in &mut self.stubs {
            flushed |= stub.up.flush() | stub.down.flush();
        }
        if flushed {
            return Ok(true);
        }
        let Some(at) = self.core.next_wake() else {
            return Ok(false);
        };
        if at > self.clock.now() {
            self.clock.advance(at - self.clock.now());
        }
        self.tick()?;
        Ok(true)
    }

    fn step(&mut self) -> Result<bool, ServeError> {
        let roll = self.rng.unit_f64();
        let live: Vec<usize> = (0..self.stubs.len())
            .filter(|&w| self.stubs[w].connected())
            .collect();
        if roll < self.rate / 32.0 && !live.is_empty() {
            self.disturbances += 1;
            let w = live[self.pick(live.len())];
            self.close(w)?;
            return Ok(true);
        }
        if roll < self.jump_rate {
            self.disturbances += 1;
            let jumps = [TTL / 4, TTL / 2, TTL, BACKOFF, TTL * 2];
            let by = jumps[self.pick(jumps.len())];
            self.clock.advance(by);
            self.tick()?;
            return Ok(true);
        }
        // Deliver a frame, let a stub work, or connect a latecomer.
        let mut moves = Vec::new();
        for (w, stub) in self.stubs.iter().enumerate() {
            if stub.connected() && !stub.up.queue.is_empty() {
                moves.push((0, w));
            }
            if stub.can_work() {
                moves.push((1, w));
            }
            if stub.phase == Phase::Waiting {
                moves.push((2, w));
            }
        }
        if moves.is_empty() {
            return self.idle();
        }
        match moves[self.pick(moves.len())] {
            (0, w) => self.deliver(w)?,
            (1, w) => self.work(w)?,
            (_, w) => self.connect(w),
        }
        Ok(true)
    }

    fn run(mut self, on_time: usize) -> (Verdict, usize) {
        for w in 0..on_time {
            self.connect(w);
        }
        for _ in 0..MAX_STEPS {
            if self.core.finished() {
                return (Verdict::Joined(self.core.join()), self.disturbances);
            }
            match self.step() {
                Ok(true) => {}
                Ok(false) => return (Verdict::Hang, self.disturbances),
                Err(e) => return (Verdict::Failed(e), self.disturbances),
            }
        }
        (Verdict::Runaway, self.disturbances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfport_core::{run_study_sharded, Shard};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn single_shot() -> &'static str {
        static CSV: OnceLock<String> = OnceLock::new();
        CSV.get_or_init(|| {
            render_study_csv(
                &run_study_sharded(IDS, &StudyConfig::quick(), Shard::FULL, 1),
                true,
            )
        })
    }

    fn simulate(case: &Case) -> (Verdict, usize) {
        Sim::new(case).run(case.workers - case.late)
    }

    #[test]
    fn an_undisturbed_schedule_joins() {
        for seed in 0..32 {
            let case = Case {
                workers: 1 + seed as usize % 3,
                late: seed as usize % 2,
                lease_points: 1 + seed as usize % 4,
                seed,
                rate: 0.0,
                jump_rate: 0.0,
                deadline: false,
            };
            match simulate(&case) {
                (Verdict::Joined(joined), 0) => assert_eq!(joined.csv, single_shot()),
                other => panic!("{case:?}: {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every schedule ends in the byte-identical join or a typed
        /// error, never in a hang: with no deadline, a run nothing can
        /// move again would wait forever. Only a disturbed schedule may
        /// end in an error.
        #[test]
        fn schedules_end_in_the_join_or_a_typed_error(
            workers in 1usize..4,
            late in 0usize..3,
            lease_points in 1usize..5,
            seed in 0u64..u64::MAX,
            rate in 0.0f64..0.2,
            jump_rate in 0.0f64..0.05,
            deadline in proptest::bool::ANY,
        ) {
            let case = Case {
                workers,
                late: late.min(workers - 1),
                lease_points,
                seed,
                rate,
                jump_rate,
                deadline,
            };
            match simulate(&case) {
                (Verdict::Joined(joined), _) => {
                    prop_assert_eq!(joined.csv.as_str(), single_shot(), "{:?}", case);
                    prop_assert_eq!(strip_trailer(&joined.render()), single_shot(), "{:?}", case);
                }
                (Verdict::Failed(e), disturbances) => prop_assert!(
                    disturbances > 0,
                    "{case:?}: {e} in an undisturbed schedule"
                ),
                (verdict, _) => prop_assert!(false, "{case:?}: {verdict:?}"),
            }
        }
    }
}
