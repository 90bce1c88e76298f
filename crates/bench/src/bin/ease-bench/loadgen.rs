//! Load generation: a seeded RNG, Zipf popularity, and open-loop drivers
//! that time every request from the instant it was *due*, so a stall in
//! the system under test shows in the latency of every request scheduled
//! during it (no coordinated omission).

use std::time::{Duration, Instant};

/// SplitMix64 — the harness's only randomness, so a `--seed` reproduces
/// graph seeds, request order and popularity draws exactly.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`exponent`) popularity over `n` items: item `rank_to_item[r]` is
/// drawn with probability proportional to `1 / (r + 1)^exponent`. Which
/// item is popular is itself drawn from the seed.
pub struct Zipf {
    cdf: Vec<f64>,
    rank_to_item: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, rng: &mut SplitMix64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut rank_to_item: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut rank_to_item);
        Zipf { cdf, rank_to_item }
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.rank_to_item[rank]
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Latency of every request answered correctly, measured from its due
    /// time, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// How late each request left the generator (actual send − due), in
    /// milliseconds: large values mean the sandbox, not the program,
    /// shaped the tail.
    pub late_ms: Vec<f64>,
    pub sent: usize,
    pub failed: usize,
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn ms_since(due: Instant) -> f64 {
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Request `i` of a phase at `rate` requests per second is due at
/// `start + i / rate`, whatever happened to the requests before it.
fn due_at(start: Instant, rate: f64, i: usize) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// Open loop over one pipelined connection: a sender thread writes request
/// `i` when it is due and never waits for an answer; a receiver thread
/// takes answers in arrival order. `send(i)` returns whether the write
/// succeeded; `recv()` returns the index of the answered request and
/// whether the answer was correct, or `None` when the connection is gone.
/// A failed send ends the phase: the same broken connection fails `recv`.
pub fn open_loop_pipelined(
    rate: f64,
    n: usize,
    mut send: impl FnMut(usize) -> bool + Send,
    mut recv: impl FnMut() -> Option<(usize, bool)> + Send,
) -> OpenLoop {
    let start = Instant::now() + Duration::from_millis(2);
    let (late_ms, (latency_ms, wrong)) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(n);
            for i in 0..n {
                let due = due_at(start, rate, i);
                sleep_until(due);
                late_ms.push(ms_since(due));
                if !send(i) {
                    break;
                }
            }
            late_ms
        });
        let receiver = scope.spawn(move || {
            let mut latency_ms = Vec::with_capacity(n);
            let mut wrong = 0usize;
            for _ in 0..n {
                let Some((i, correct)) = recv() else { break };
                if correct {
                    latency_ms.push(ms_since(due_at(start, rate, i)));
                } else {
                    wrong += 1;
                }
            }
            (latency_ms, wrong)
        });
        (
            sender.join().expect("open-loop sender panicked"),
            receiver.join().expect("open-loop receiver panicked"),
        )
    });
    let answered = latency_ms.len() + wrong;
    OpenLoop {
        sent: n,
        // unanswered requests (a dead connection) fail like wrong answers
        failed: n - answered + wrong,
        latency_ms,
        late_ms,
    }
}

/// Open loop over synchronous connections (HTTP keep-alive: one request in
/// flight per connection). Connection `c` of `C` owns requests `c, c + C,
/// …` of the schedule; `exchange(i)` sends request `i`, waits for its
/// answer and returns whether it was correct. A connection still busy when
/// its next request falls due sends it late, and the wait counts.
pub fn open_loop_sync<F>(rate: f64, n: usize, connections: Vec<F>) -> OpenLoop
where
    F: FnMut(usize) -> bool + Send,
{
    let start = Instant::now() + Duration::from_millis(2);
    let stride = connections.len();
    let per_connection: Vec<(Vec<f64>, Vec<f64>, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, mut exchange)| {
                scope.spawn(move || {
                    let (mut latency_ms, mut late_ms, mut failed) = (Vec::new(), Vec::new(), 0);
                    for i in (c..n).step_by(stride) {
                        let due = due_at(start, rate, i);
                        sleep_until(due);
                        late_ms.push(ms_since(due));
                        if exchange(i) {
                            latency_ms.push(ms_since(due));
                        } else {
                            failed += 1;
                        }
                    }
                    (latency_ms, late_ms, failed)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("open-loop connection panicked")).collect()
    });
    let mut out = OpenLoop { sent: n, ..OpenLoop::default() };
    for (latency_ms, late_ms, failed) in per_connection {
        out.latency_ms.extend(latency_ms);
        out.late_ms.extend(late_ms);
        out.failed += failed;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn splitmix_and_zipf_repeat_from_the_seed() {
        let draws = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            let zipf = Zipf::new(256, 1.0, &mut rng);
            (0..2_000).map(|_| zipf.draw(&mut rng)).collect::<Vec<usize>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = SplitMix64::new(1);
        let zipf = Zipf::new(256, 1.0, &mut rng);
        let mut hits = vec![0usize; 256];
        for _ in 0..20_000 {
            hits[zipf.draw(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H(256) ≈ 0.163; the top 64 ranks carry ≈ 77 %
        let top = hits[zipf.rank_to_item[0]];
        assert!((2_800..3_700).contains(&top), "rank-0 item drawn {top} times");
        let top64: usize = zipf.rank_to_item[..64].iter().map(|&item| hits[item]).sum();
        assert!((14_600..16_200).contains(&top64), "top 64 ranks drawn {top64} times");
        assert!(hits.iter().all(|&h| h > 0), "every item is reachable");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(3);
        let mut items: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    /// A server that answers in order and stalls once for 50 ms. With 1000
    /// requests per second, about fifty requests fall due during the stall;
    /// an open-loop generator must show the stall in every one of them. (A
    /// generator that waited for each answer before sending the next would
    /// show it in one.)
    #[test]
    fn a_server_stall_shows_in_every_request_due_during_it() {
        const N: usize = 300;
        const STALL_AT: usize = 100;
        let (to_server, server_in) = mpsc::channel::<usize>();
        let (to_client, client_in) = mpsc::channel::<usize>();
        let server = std::thread::spawn(move || {
            for i in server_in {
                if i == STALL_AT {
                    std::thread::sleep(Duration::from_millis(50));
                }
                if to_client.send(i).is_err() {
                    break;
                }
            }
        });
        let run = open_loop_pipelined(
            1_000.0,
            N,
            move |i| to_server.send(i).is_ok(),
            move || client_in.recv().ok().map(|i| (i, true)),
        );
        server.join().expect("server thread");
        assert_eq!((run.sent, run.failed, run.latency_ms.len()), (N, 0, N));
        // answers arrive in request order, so latency_ms[i] is request i
        let delayed = run.latency_ms.iter().filter(|&&ms| ms >= 10.0).count();
        assert!(delayed >= 35, "only {delayed} requests saw the 50 ms stall");
        assert!(run.latency_ms[STALL_AT] >= 50.0);
        // the request due 20 ms into the stall waited out the other 30 ms
        assert!(run.latency_ms[STALL_AT + 20] >= 25.0);
        assert_eq!(run.late_ms.len(), N);
    }

    #[test]
    fn sync_connections_split_the_schedule_and_count_failures() {
        let fail_on = |bad: usize| move |i: usize| i != bad;
        // connection 0 owns the even requests, so it is the one that meets 6
        let run = open_loop_sync(2_000.0, 40, vec![fail_on(6), fail_on(usize::MAX)]);
        assert_eq!((run.sent, run.failed), (40, 1));
        assert_eq!(run.latency_ms.len(), 39);
        assert_eq!(run.late_ms.len(), 40);
    }
}
