//! Host-speed probes: fixed kernels of the harness's own, timed right
//! before and after every slice of measured work, so that what the shared
//! host did to the slice can be divided out of it.
//!
//! Why: on the two-vCPU sandbox this benchmark is sized on, a neighbour on
//! the same physical core switches on and off every few seconds and in
//! regimes that last minutes. While it runs, everything memory- or
//! port-bound in this process takes 25–60 % longer; a dependent arithmetic
//! chain does not notice. Medians of raw wall time over ten 12-second runs
//! therefore spread by 10–40 %, and no statistic of the raw samples
//! (median, quartile, minimum, the quietest third of slices) stays within a
//! third of that in every regime.
//!
//! A probe does the same kind of work as the operations it stands beside
//! and slows down with them. There are two ([`Bound`]), because the
//! neighbour does not slow everything alike: kernel entries and thread
//! switches lose about 1.5 times (in the exponent) what a merge loop over
//! memory loses. Divided by the merge probe's slowdown the serve workloads'
//! round trips were left with a 13 % spread over ten runs; divided by the
//! hand-off probe's, `serve-churn`'s cache misses (which re-run the graph
//! extraction) were over-corrected by 10–15 % in the noisiest runs. Each by
//! its own, the cold and serve workloads read 1–7 % and `train-tiny` 5–11 %.
//!
//! The probes never touch a library crate: a change to the repository
//! moves the measured work and leaves the probes alone.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::Instant;

/// What an operation spends its time on, hence which probe tells how much
/// slower than nominal the host ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Loops over memory: graph analysis, partitioning, training.
    Compute,
    /// System calls and thread hand-offs: a request through the daemon.
    Handoffs,
}

/// How much slower than nominal the host ran either kind of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    pub compute: f64,
    /// `None` in a run that has no hand-off-bound work and so no such probe.
    pub handoffs: Option<f64>,
}

impl Slowdown {
    pub fn of(&self, bound: Bound) -> f64 {
        match bound {
            Bound::Compute => self.compute,
            Bound::Handoffs => self.handoffs.expect("the run started the hand-off probe"),
        }
    }

    pub fn mean(a: Slowdown, b: Slowdown) -> Slowdown {
        Slowdown {
            compute: (a.compute + b.compute) / 2.0,
            handoffs: a.handoffs.zip(b.handoffs).map(|(a, b)| (a + b) / 2.0),
        }
    }
}

/// The probes of a run. A pass times each and returns the host's slowdown:
/// the pass's time over what it takes on the sizing host while its
/// neighbours are idle (the fastest tenth of passes over several quiet
/// minutes). Those constants are only unit conversions — normalised times
/// are "milliseconds on a host that runs the probe in this time" — and a
/// faster host reads below 1.0 throughout.
pub struct Probes {
    merge: MergeProbe,
    handoff: Option<HandoffProbe>,
}

impl Probes {
    /// Start the merge probe and, `with_handoffs`, the hand-off probe: only
    /// for a run pinned to one core, where its two threads switch as the
    /// daemon's do (across cores a round trip is an inter-processor wake-up
    /// and takes eight times as long). Threads started here inherit the CPU
    /// mask, so a workload that pins itself does so first.
    pub fn new(with_handoffs: bool) -> std::io::Result<Probes> {
        let handoff = if with_handoffs { Some(HandoffProbe::new()?) } else { None };
        let mut probes = Probes { merge: MergeProbe::new(), handoff };
        // the first pass faults the merge probe's graph in and sees the echo
        // thread through its first read
        probes.pass();
        Ok(probes)
    }

    /// One timed pass of each probe, about 5 ms each.
    pub fn pass(&mut self) -> Slowdown {
        Slowdown {
            compute: self.merge.pass_ms() / MERGE_NOMINAL_MS,
            handoffs: self.handoff.as_mut().map(|probe| probe.pass_ms() / HANDOFF_NOMINAL_MS),
        }
    }
}

const MERGE_NOMINAL_MS: f64 = 5.0;
const HANDOFF_NOMINAL_MS: f64 = 4.5;

const VERTICES: usize = 1 << 15;
/// Source vertices one pass intersects the neighbourhoods of.
const SOURCES: usize = 1_400;
const SOURCE_STRIDE: usize = 23;

/// Merge intersections of sorted adjacency lists of a skewed graph that does
/// not fit the first-level cache: the program's dominant kernel.
struct MergeProbe {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// Common neighbours one pass must find.
    expected: u64,
}

impl MergeProbe {
    /// Build the probe's graph: degrees fall off as 1/v from 400 to 4 and
    /// neighbours crowd towards the low ids, as in the R-MAT inputs. The
    /// generator is fixed; `--seed` does not reach it.
    fn new() -> MergeProbe {
        let mut state = 12_345u64;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut offsets = vec![0];
        let mut targets: Vec<u32> = Vec::new();
        for v in 0..VERTICES {
            let degree = 4 + (VERTICES / (v + 8)).min(400);
            let mut list: Vec<u32> = (0..degree)
                .map(|_| {
                    let r = next() % VERTICES;
                    (r * r / VERTICES) as u32
                })
                .collect();
            list.sort_unstable();
            list.dedup();
            targets.extend(list);
            offsets.push(targets.len());
        }
        let mut probe = MergeProbe { offsets, targets, expected: 0 };
        probe.expected = probe.common_neighbours();
        probe
    }

    fn neighbours(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    fn common_neighbours(&self) -> u64 {
        let mut common = 0;
        for k in 0..SOURCES {
            let of_u = self.neighbours(k * SOURCE_STRIDE % VERTICES);
            for &v in of_u {
                let of_v = self.neighbours(v as usize);
                let (mut i, mut j) = (0, 0);
                while i < of_u.len() && j < of_v.len() {
                    match of_u[i].cmp(&of_v[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            common += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        common
    }

    /// One timed pass, in milliseconds.
    fn pass_ms(&self) -> f64 {
        let t = Instant::now();
        let common = std::hint::black_box(self.common_neighbours());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(common, self.expected, "the probe is a pure function of its graph");
        ms
    }
}

/// Messages of this size — about one request plus one answer of the serve
/// workloads — go to a thread of the probe's own and back, one at a time:
/// two system calls and two thread switches per round trip.
struct HandoffProbe {
    near: UnixStream,
    echo: Option<JoinHandle<()>>,
}

const HANDOFF_ROUND_TRIPS: usize = 1_000;
const HANDOFF_MESSAGE_BYTES: usize = 512;

impl HandoffProbe {
    fn new() -> std::io::Result<HandoffProbe> {
        let (near, mut far) = UnixStream::pair()?;
        let echo = std::thread::Builder::new().name("ease-bench-echo".into()).spawn(move || {
            let mut message = [0u8; HANDOFF_MESSAGE_BYTES];
            // ends when the near end shuts down
            while far.read_exact(&mut message).is_ok() && far.write_all(&message).is_ok() {}
        })?;
        Ok(HandoffProbe { near, echo: Some(echo) })
    }

    /// One timed pass, in milliseconds.
    fn pass_ms(&mut self) -> f64 {
        let mut message = [7u8; HANDOFF_MESSAGE_BYTES];
        let t = Instant::now();
        for _ in 0..HANDOFF_ROUND_TRIPS {
            let echoed =
                self.near.write_all(&message).and_then(|()| self.near.read_exact(&mut message));
            assert!(echoed.is_ok(), "the echo thread lives as long as the probe");
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

impl Drop for HandoffProbe {
    fn drop(&mut self) {
        // errors mean the thread is gone already
        self.near.shutdown(std::net::Shutdown::Both).ok();
        if let Some(echo) = self.echo.take() {
            echo.join().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_merge_probe_does_the_same_work_every_pass() {
        let probe = MergeProbe::new();
        assert!(probe.expected > 0);
        assert!(probe.pass_ms() > 0.0);
        assert_eq!(MergeProbe::new().expected, probe.expected);
    }

    #[test]
    fn both_probes_pass_and_the_echo_thread_ends_with_its_probe() {
        let mut probes = Probes::new(true).expect("start probes");
        let slowdown = probes.pass();
        assert!(slowdown.of(Bound::Compute) > 0.0 && slowdown.of(Bound::Handoffs) > 0.0);
        assert_eq!(Slowdown::mean(slowdown, slowdown), slowdown);
        assert_eq!(Probes::new(false).expect("start probe").pass().handoffs, None);
        // joins the echo thread: a probe that could not stop it would hang here
        drop(probes);
    }
}
