//! Seeded inputs and the two load generators, with the checks that every
//! answer is right and every offered request is accounted for.
//!
//! The served stream and the arrival schedule are functions of `--seed`
//! alone; the program under test only ever sees the generated queries.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use qdgnn_data::{queries as qgen, AttrMode, Dataset, Query};
use qdgnn_graph::VertexId;
use qdgnn_serve::{EngineStats, Pending, ServeEngine, ServeError};

use crate::stats::Dist;

/// SplitMix64: a tiny, well-mixed, seedable generator for arrival times
/// and kernel inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The served stream: `len` AFC queries of 1–3 vertices drawn with
/// `seed`. Queries cycle over the ground-truth communities; the seed
/// also picks the community the cycle starts at, so a stream shorter
/// than the community count still varies with it.
pub fn stream(dataset: &Dataset, len: usize, seed: u64) -> Vec<Query> {
    let skip = (seed % dataset.communities.len().max(1) as u64) as usize;
    let mut queries = qgen::generate(dataset, skip + len, 1, 3, AttrMode::FromCommunity, seed);
    queries.drain(..skip);
    queries
}

/// Poisson arrivals at `rate_hz` over `duration`: due times in µs from
/// the phase start. The seed is mixed with the rate so two phases of one
/// run draw different gaps.
pub fn poisson_schedule(rate_hz: f64, duration: Duration, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ rate_hz.to_bits());
    let end_us = duration.as_secs_f64() * 1e6;
    let mut t_us = 0.0;
    let mut due = Vec::new();
    loop {
        // 1 - U lies in (0, 1], so the log is finite.
        t_us += -(1.0 - rng.next_f64()).ln() / rate_hz * 1e6;
        if t_us >= end_us {
            return due;
        }
        due.push(t_us as u64);
    }
}

/// Outcome counts and latency samples of one load phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Requests the generator tried to submit.
    pub offered: u64,
    /// Ok replies.
    pub answered: u64,
    /// Deadline sheds the client saw, at admission or at dequeue.
    pub shed: u64,
    /// Submissions refused with `QueueFull`.
    pub rejected: u64,
    /// Replies that were neither Ok nor a shed (includes client timeouts).
    pub errors: u64,
    /// Ok replies whose community differed from the reference.
    pub wrong: u64,
    /// Ok replies later than the open loop's deadline after their due time.
    pub late: u64,
    /// Latency (ms) of every Ok reply: from submit in a closed loop,
    /// from the due time in an open loop.
    pub latency_ms: Vec<f64>,
    /// Seconds from the phase start to each Ok reply, in reply order.
    pub done_s: Vec<f64>,
    /// How late (ms) the open-loop sender submitted each request.
    pub send_late_ms: Vec<f64>,
    /// Sum of `queue_depth()` read just before each submit.
    pub depth_sum: u64,
    /// Wall time from the phase start to its last reply.
    pub wall_s: f64,
}

impl Phase {
    fn record(
        &mut self,
        reply: Result<Vec<VertexId>, ServeError>,
        want: &[VertexId],
        ms: f64,
        done_s: f64,
    ) {
        match reply {
            Ok(got) => {
                self.answered += 1;
                self.latency_ms.push(ms);
                self.done_s.push(done_s);
                if got != want {
                    self.wrong += 1;
                }
            }
            Err(e) => self.refuse(&e),
        }
    }

    fn refuse(&mut self, e: &ServeError) {
        match e {
            ServeError::DeadlineExceeded { .. } => self.shed += 1,
            ServeError::QueueFull { .. } => self.rejected += 1,
            _ => self.errors += 1,
        }
    }

    fn merge(&mut self, other: Phase) {
        self.answered += other.answered;
        self.shed += other.shed;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.late += other.late;
        self.latency_ms.extend(other.latency_ms);
        self.done_s.extend(other.done_s);
    }

    /// Ok replies per second: the median rate over blocks of about one
    /// second each, counted from `warmup_s` into the phase. Each block
    /// holds the same number of consecutive replies, so its rate is exact
    /// rather than a count per fixed window. A slow stretch shorter than
    /// half the measured span cannot move the median. 0 with no replies.
    pub fn throughput(&self, warmup_s: f64) -> f64 {
        let done: Vec<f64> = self
            .done_s
            .iter()
            .copied()
            .filter(|&t| t > warmup_s)
            .collect();
        let Some(&last) = done.last() else {
            return 0.0;
        };
        let blocks = ((last - warmup_s) as usize).clamp(1, done.len());
        let per_block = done.len() / blocks;
        let mut begin = warmup_s;
        let rates = done
            .chunks_exact(per_block)
            .map(|block| {
                let end = block[block.len() - 1];
                let rate = per_block as f64 / (end - begin);
                begin = end;
                rate
            })
            .collect();
        Dist::new(rates).median()
    }
}

/// Every offered request ended in exactly one outcome.
pub fn check_tally(p: &Phase) -> Result<(), String> {
    let ended = p.answered + p.shed + p.rejected + p.errors;
    if p.offered == ended {
        Ok(())
    } else {
        Err(format!(
            "offered {} != answered {} + shed {} + rejected {} + errors {}",
            p.offered, p.answered, p.shed, p.rejected, p.errors
        ))
    }
}

/// The sheds clients saw are exactly the sheds the engine counted
/// between the `before` and `after` snapshots.
pub fn check_sheds(p: &Phase, before: &EngineStats, after: &EngineStats) -> Result<(), String> {
    let engine = (after.shed_admission + after.shed_deadline)
        - (before.shed_admission + before.shed_deadline);
    if p.shed == engine {
        Ok(())
    } else {
        Err(format!(
            "clients saw {} sheds, the engine counted {engine}",
            p.shed
        ))
    }
}

/// Every Ok reply matched the reference forward.
pub fn check_answers(p: &Phase) -> Result<(), String> {
    if p.wrong == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} of {} answers differ from the reference forward",
            p.wrong, p.answered
        ))
    }
}

/// How long a closed-loop client waits for one reply before it counts
/// the request as an error.
const CLOSED_LOOP_PATIENCE: Duration = Duration::from_secs(60);

/// One closed-loop client: submit, wait, repeat, cycling over the stream
/// until `duration` has passed or `limit` requests were sent. The client
/// waits [`CLOSED_LOOP_PATIENCE`], not the request deadline that
/// `Pending::wait` stops at: a client that gave up first would count a
/// shed the engine never made, and the shed check would fail the run.
pub fn closed_loop(
    engine: &ServeEngine,
    stream: &[Query],
    reference: &[Vec<VertexId>],
    duration: Duration,
    limit: usize,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    for i in 0..limit {
        if start.elapsed() >= duration {
            break;
        }
        let q = stream[i % stream.len()].clone();
        p.offered += 1;
        p.depth_sum += engine.queue_depth() as u64;
        let t = Instant::now();
        let reply = engine.submit(q).and_then(|pending| {
            pending
                .wait_timeout(CLOSED_LOOP_PATIENCE)
                .unwrap_or(Err(ServeError::WorkerLost))
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let done_s = start.elapsed().as_secs_f64();
        p.record(reply, &reference[i % reference.len()], ms, done_s);
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// An open loop: the calling thread sends on `schedule` (µs offsets)
/// whatever the engine's state, and one collector thread waits for the
/// replies in order. Latency runs from each request's due time. The
/// collector waits `deadline + margin`, so it never gives up before the
/// engine has had its chance to answer or shed.
pub fn open_loop(
    engine: &ServeEngine,
    stream: &[Query],
    reference: &[Vec<VertexId>],
    schedule: &[u64],
    deadline: Duration,
) -> Phase {
    let wait = deadline + Duration::from_secs(1);
    let late_after_ms = deadline.as_secs_f64() * 1e3;
    let (tx, rx) = mpsc::channel::<(usize, Instant, Pending)>();
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut p = Phase::default();
            for (i, due, pending) in rx {
                let reply = pending
                    .wait_timeout(wait)
                    .unwrap_or(Err(ServeError::WorkerLost));
                let ms = due.elapsed().as_secs_f64() * 1e3;
                if reply.is_ok() && ms > late_after_ms {
                    p.late += 1;
                }
                let done_s = start.elapsed().as_secs_f64();
                p.record(reply, &reference[i % reference.len()], ms, done_s);
            }
            p
        });
        let mut p = Phase::default();
        for (i, &offset_us) in schedule.iter().enumerate() {
            let q = stream[i % stream.len()].clone();
            let due = start + Duration::from_micros(offset_us);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            p.send_late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            p.offered += 1;
            p.depth_sum += engine.queue_depth() as u64;
            match engine.submit(q) {
                Ok(pending) => {
                    if tx.send((i, due, pending)).is_err() {
                        p.errors += 1;
                    }
                }
                Err(e) => p.refuse(&e),
            }
        }
        drop(tx);
        // A panicked collector loses its tally; the accounting check
        // then fails the run.
        if let Ok(collected) = collector.join() {
            p.merge(collected);
        }
        p.wall_s = start.elapsed().as_secs_f64();
        p
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(offered: u64, answered: u64, shed: u64, rejected: u64, errors: u64) -> Phase {
        Phase {
            offered,
            answered,
            shed,
            rejected,
            errors,
            ..Phase::default()
        }
    }

    #[test]
    fn tally_check_catches_a_lost_request() {
        assert!(check_tally(&tally(10, 6, 2, 1, 1)).is_ok());
        assert!(check_tally(&tally(10, 6, 2, 1, 0)).is_err());
        assert!(check_tally(&tally(10, 7, 2, 1, 1)).is_err());
    }

    #[test]
    fn shed_check_compares_against_engine_deltas() {
        let before = EngineStats {
            shed_admission: 3,
            shed_deadline: 4,
            ..EngineStats::default()
        };
        let after = EngineStats {
            shed_admission: 5,
            shed_deadline: 9,
            ..EngineStats::default()
        };
        assert!(check_sheds(&tally(20, 13, 7, 0, 0), &before, &after).is_ok());
        assert!(check_sheds(&tally(20, 14, 6, 0, 0), &before, &after).is_err());
    }

    #[test]
    fn a_mismatched_answer_fails_the_answer_check() {
        let mut p = Phase::default();
        p.record(Ok(vec![1, 2, 3]), &[1, 2, 3], 1.0, 0.1);
        assert!(check_answers(&p).is_ok());
        p.record(Ok(vec![1, 2]), &[1, 2, 3], 1.0, 0.2);
        assert!(check_answers(&p).is_err());
        assert_eq!((p.answered, p.wrong, p.latency_ms.len()), (2, 1, 2));
    }

    /// A phase whose replies come at `rate` per second from `from` to
    /// `to` seconds.
    fn steady(p: &mut Phase, rate: f64, from: f64, to: f64) {
        let n = ((to - from) * rate) as usize;
        p.done_s.extend((1..=n).map(|i| from + i as f64 / rate));
    }

    #[test]
    fn throughput_is_the_median_block_rate_after_the_warm_up() {
        let mut p = Phase::default();
        steady(&mut p, 100.0, 0.0, 2.0);
        steady(&mut p, 1000.0, 2.0, 6.0);
        steady(&mut p, 250.0, 6.0, 8.0);
        steady(&mut p, 1000.0, 8.0, 13.0);
        // A 2 s slow stretch among 11 s of the full rate does not move it.
        assert!(
            (p.throughput(2.0) - 1000.0).abs() < 1.0,
            "{}",
            p.throughput(2.0)
        );
        // Counted from 0 s, the slow first 2 s spoil only the first of 13
        // blocks.
        assert!((p.throughput(0.0) - 1000.0).abs() < 1.0);
        let mut short = Phase::default();
        steady(&mut short, 400.0, 0.0, 0.5);
        assert!((short.throughput(0.0) - 400.0).abs() < 1.0);
        assert_eq!(Phase::default().throughput(0.0), 0.0);
        assert_eq!(short.throughput(1.0), 0.0);
    }

    #[test]
    fn refusals_are_classified() {
        let mut p = Phase::default();
        p.refuse(&ServeError::DeadlineExceeded {
            waited_us: 0,
            deadline_us: 1,
        });
        p.refuse(&ServeError::QueueFull { capacity: 1 });
        p.refuse(&ServeError::WorkerLost);
        assert_eq!((p.shed, p.rejected, p.errors), (1, 1, 1));
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let s = poisson_schedule(1000.0, Duration::from_secs(10), 5);
        assert!((9_500..10_500).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.last().is_some_and(|&t| t < 10_000_000));
    }
}
