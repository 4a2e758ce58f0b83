//! Offline stand-in for `crossbeam-channel` (0.5 API subset), backed by
//! `std::sync::mpsc`.
//!
//! Implements the surface `homonym_core::exec::Pool` uses to collect task
//! results: the [`unbounded`] constructor, a cloneable [`Sender`], and
//! non-blocking [`Receiver::try_recv`]. (`bounded`, blocking receives,
//! `select!` and cloneable receivers are not provided.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::mpsc;

/// Error returned by [`Sender::send`] when the receiver is gone; owns
/// the unsent message.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Like crossbeam: `Debug` regardless of `T`, eliding the message.
impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// All senders are gone and the buffer is drained.
    Disconnected,
}

/// The sending half of a channel. Cloneable, like crossbeam's.
pub struct Sender<T>(mpsc::Sender<T>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(self.0.clone())
    }
}

impl<T> Sender<T> {
    /// Sends `msg`. Fails only when the receiver has been dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.0.send(msg).map_err(|mpsc::SendError(m)| SendError(m))
    }
}

/// The receiving half of a channel.
pub struct Receiver<T>(mpsc::Receiver<T>);

impl<T> Receiver<T> {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.0.try_recv().map_err(|e| match e {
            mpsc::TryRecvError::Empty => TryRecvError::Empty,
            mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
        })
    }
}

/// Creates a channel with an unbounded buffer.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender(tx), Receiver(rx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn round_trip_across_threads() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let h = thread::spawn(move || {
            for i in 0..10 {
                tx2.send(i).unwrap();
            }
        });
        h.join().unwrap();
        let got: Vec<u32> = (0..10).map(|_| rx.try_recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_receiver_drops() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }
}
