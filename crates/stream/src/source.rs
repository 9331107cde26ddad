//! Stream sources.
//!
//! Streaming algorithms consume any `IntoIterator`; the extra machinery here
//! is a bounded-channel source so examples can emulate a live feed (the
//! paper motivates the streaming setting with "data generated on the fly...
//! for instance in a streamed DBMS or a social media platform").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The producer's handle into a [`ChannelSource`] channel.
///
/// Consumer hang-up (the source dropped before draining — e.g. a serving
/// session evicted mid-stream) is part of the normal lifecycle, not an
/// error: [`Feeder::send`] reports it as `false` so the producer can stop
/// feeding, and never panics. A producer that keeps sending anyway just
/// keeps getting `false` back.
pub struct Feeder<T> {
    sender: SyncSender<T>,
    disconnected: Arc<AtomicBool>,
}

impl<T> Feeder<T> {
    /// Sends the next stream item.
    ///
    /// Returns `true` when the item was accepted (possibly after blocking
    /// on a full buffer) and `false` when the consumer has hung up — the
    /// graceful-stop signal. The item is dropped in that case (it never
    /// reached anyone).
    pub fn send(&self, item: T) -> bool {
        match self.sender.send(item) {
            Ok(()) => true,
            Err(_) => {
                self.disconnected.store(true, Ordering::Release);
                false
            }
        }
    }

    /// Feeds every item of `items` in order; stops early and returns
    /// `false` if the consumer hangs up mid-iteration.
    pub fn feed<I: IntoIterator<Item = T>>(&self, items: I) -> bool {
        for item in items {
            if !self.send(item) {
                return false;
            }
        }
        true
    }
}

/// A stream fed by a producer thread through a bounded channel.
///
/// Dropping the source disconnects the consumer; the producer then observes
/// `false` from [`Feeder::send`] and winds down gracefully. The producer
/// thread is joined on [`ChannelSource::join`], which reports whether the
/// stream was fully drained.
pub struct ChannelSource<T> {
    receiver: Option<Receiver<T>>,
    producer: Option<JoinHandle<()>>,
    disconnected: Arc<AtomicBool>,
}

impl<T: Send + 'static> ChannelSource<T> {
    /// Spawns `produce` on a background thread writing into a channel of
    /// capacity `buffer`, returning the consuming source.
    pub fn spawn<F>(buffer: usize, produce: F) -> Self
    where
        F: FnOnce(Feeder<T>) + Send + 'static,
    {
        let (tx, rx) = sync_channel(buffer);
        let disconnected = Arc::new(AtomicBool::new(false));
        let feeder = Feeder {
            sender: tx,
            disconnected: Arc::clone(&disconnected),
        };
        let handle = std::thread::spawn(move || produce(feeder));
        ChannelSource {
            receiver: Some(rx),
            producer: Some(handle),
            disconnected,
        }
    }

    /// Waits for the producer thread to finish and reports whether the
    /// stream was **fully drained**: `true` iff the producer never saw a
    /// disconnect and the consumer left no item behind in the buffer.
    ///
    /// Safe to call even when the consumer stopped iterating early: the
    /// leftover items are discarded (and counted against the return value)
    /// while waiting, so a producer blocked on a full buffer finishes
    /// instead of deadlocking the join.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the producer closure itself — a producer
    /// bug, not a lifecycle event.
    pub fn join(mut self) -> bool {
        let rx = self.receiver.take().expect("receiver owned until join");
        let mut undrained = 0usize;
        if let Some(handle) = self.producer.take() {
            // Keep the receiver alive and drain while waiting: the
            // producer must finish on its own terms (so `undrained` is an
            // exact count), but may be blocked on a full buffer.
            loop {
                while rx.try_recv().is_ok() {
                    undrained += 1;
                }
                if handle.is_finished() {
                    break;
                }
                std::thread::yield_now();
            }
            handle.join().expect("stream producer panicked");
            while rx.try_recv().is_ok() {
                undrained += 1;
            }
        }
        undrained == 0 && !self.disconnected.load(Ordering::Acquire)
    }

    /// Iterates over the stream items as they arrive.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.receiver
            .as_ref()
            .expect("receiver owned until join")
            .iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn channel_source_delivers_everything_in_order() {
        let source = ChannelSource::spawn(8, |tx| {
            assert!(tx.feed(0..100u32));
        });
        let got: Vec<u32> = source.iter().collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(source.join(), "fully drained stream");
    }

    #[test]
    fn bounded_buffer_applies_backpressure() {
        // The producer can be at most `buffer + 1` items ahead of the
        // consumer; verify by consuming slowly and checking we still get all
        // items (i.e. the producer blocked instead of dropping).
        let source = ChannelSource::spawn(2, |tx| {
            for i in 0..50u32 {
                assert!(tx.send(i));
            }
        });
        let mut got = Vec::new();
        for item in source.iter() {
            got.push(item);
            std::thread::yield_now();
        }
        assert_eq!(got.len(), 50);
        assert!(source.join());
    }

    #[test]
    fn early_drop_of_the_source_stops_the_producer_gracefully() {
        // Eviction shape: the consumer drops the whole source mid-stream.
        // The producer must observe the hang-up as a `false` send — not a
        // panic — and run its epilogue.
        let stopped = Arc::new(AtomicUsize::new(0));
        let stopped_in_producer = Arc::clone(&stopped);
        let source = ChannelSource::spawn(2, move |tx| {
            let mut sent = 0usize;
            for i in 0..10_000u32 {
                if !tx.send(i) {
                    break;
                }
                sent += 1;
            }
            assert!(sent < 10_000, "consumer hung up early");
            stopped_in_producer.store(1, Ordering::Release);
        });
        // Consume a few items, then hang up entirely.
        let got: Vec<u32> = source.iter().take(3).collect();
        assert_eq!(got, vec![0, 1, 2]);
        drop(source);
        // The producer epilogue must run (graceful stop, no panic).
        while stopped.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn join_after_partial_consumption_reports_undrained_without_deadlock() {
        // The consumer stops iterating but still joins: the producer is
        // blocked on the tiny buffer, so join must unblock it by draining —
        // and report the stream as not fully drained.
        let source = ChannelSource::spawn(1, |tx| {
            tx.feed(0..100u32);
        });
        let got: Vec<u32> = source.iter().take(5).collect();
        assert_eq!(got.len(), 5);
        assert!(!source.join(), "leftover items mean not fully drained");
    }

    #[test]
    fn producer_panics_still_propagate() {
        let source = ChannelSource::spawn(4, |tx| {
            assert!(tx.send(1u32));
            panic!("producer bug");
        });
        let got: Vec<u32> = source.iter().collect();
        assert_eq!(got, vec![1]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| source.join()));
        assert!(result.is_err(), "a genuine producer panic is not swallowed");
    }
}
