//! The open-loop schedule and the attribution of a result to the chunk
//! that made its window final.
//!
//! Chunk `i` is due at `start + i × chunk / rate`, whatever the system is
//! doing; a result's latency runs from the due time of the first chunk
//! that holds an event able to close the result's window. That excludes
//! the window length and includes any wait a stall imposes.

use cogra_events::{Event, WindowId, WindowSpec};
use std::time::{Duration, Instant};

/// For each chunk of `chunk` events, the largest event time seen up to
/// and including it (arrival order, so disorder is allowed).
pub fn running_max_times(events: &[Event], chunk: usize) -> Vec<u64> {
    let mut max = 0;
    events
        .chunks(chunk)
        .map(|c| {
            max = c.iter().map(|e| e.time.ticks()).fold(max, u64::max);
            max
        })
        .collect()
}

/// The first chunk that holds an event with time ≥ `window`'s end plus
/// `slack` — the earliest chunk after which the window's result can be
/// final (with `.slack(n)` an event is released only once the stream has
/// moved `n` ticks past it). `None` when the stream ends first: such a
/// window is closed by `finish`, not by an event, and has no latency.
pub fn due_chunk(
    running_max: &[u64],
    spec: WindowSpec,
    slack: u64,
    window: WindowId,
) -> Option<usize> {
    let need = spec.window_end(window).ticks().saturating_add(slack);
    let i = running_max.partition_point(|&t| t < need);
    (i < running_max.len()).then_some(i)
}

/// A fixed-rate schedule of chunk due times.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    /// Chunks of `chunk` events at `rate` events per second, the first
    /// due at `start`.
    pub fn new(start: Instant, chunk: usize, rate: u64) -> Schedule {
        Schedule {
            start,
            period: Duration::from_secs_f64(chunk as f64 / rate as f64),
        }
    }

    /// When chunk `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }

    /// Spin until chunk `i` is due and return how late the generator is
    /// (zero when the due time was still ahead). The generator never
    /// sleeps: waking a halted virtual CPU costs more than the latencies
    /// measured here, and varies with the host (measured: `stock-type`
    /// p50 0.046-0.049 ms spinning, 0.062-0.074 ms sleeping to within
    /// 150 us of the due time).
    pub fn wait(&self, i: usize) -> Duration {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                return now - due;
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::TypeId;

    fn stream(times: &[u64]) -> Vec<Event> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(i as u64, t, TypeId(0), vec![]))
            .collect()
    }

    #[test]
    fn running_max_tolerates_disorder() {
        let events = stream(&[1, 5, 3, 4, 9, 2]);
        assert_eq!(running_max_times(&events, 2), vec![5, 5, 9]);
        assert_eq!(running_max_times(&events, 4), vec![5, 9]);
    }

    #[test]
    fn window_is_due_at_the_first_chunk_reaching_its_end() {
        // WITHIN 10 SLIDE 5: window 0 = [0,10), window 1 = [5,15).
        let spec = WindowSpec::new(10, 5);
        let events = stream(&[1, 2, 9, 10, 11, 14, 15, 16]);
        let max = running_max_times(&events, 2); // [2, 10, 14, 16]
        assert_eq!(due_chunk(&max, spec, 0, WindowId(0)), Some(1));
        assert_eq!(due_chunk(&max, spec, 0, WindowId(1)), Some(3));
        // Window 2 = [10,20) never sees an event ≥ 20: closed by finish.
        assert_eq!(due_chunk(&max, spec, 0, WindowId(2)), None);
    }

    #[test]
    fn slack_delays_the_due_chunk() {
        let spec = WindowSpec::new(10, 5);
        let events = stream(&[1, 2, 9, 10, 11, 14, 15, 16]);
        let max = running_max_times(&events, 2);
        // With slack 4 window 0 needs an event ≥ 14.
        assert_eq!(due_chunk(&max, spec, 4, WindowId(0)), Some(2));
        // With slack 7 it needs ≥ 17, which never comes.
        assert_eq!(due_chunk(&max, spec, 7, WindowId(0)), None);
    }

    #[test]
    fn schedule_is_fixed_rate_and_reports_lateness() {
        let start = Instant::now();
        let s = Schedule::new(start, 256, 256_000); // 1 ms per chunk
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(3) - start, Duration::from_millis(3));
        // Chunk 0 is already due: lateness is reported, not hidden.
        std::thread::sleep(Duration::from_millis(2));
        assert!(s.wait(0) >= Duration::from_millis(2));
        // A future chunk is waited for, and not overshot by much.
        let late = s.wait(20);
        assert!(Instant::now() >= s.due(20));
        assert!(late < Duration::from_millis(5), "{late:?}");
    }
}
