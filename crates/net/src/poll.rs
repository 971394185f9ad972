//! A small dependency-free readiness poller for the event-driven server.
//!
//! On Unix this is a thin wrapper over the C library's `poll(2)` —
//! level-triggered, O(sources) per call, no allocation beyond a reused
//! `pollfd` scratch vector, and no external crates (the symbol comes from
//! the libc every Rust binary already links). Elsewhere it degrades to a
//! short-sleep sweep that reports every source ready; because all server
//! sockets are non-blocking, "falsely ready" costs one `EWOULDBLOCK` read,
//! never a stall — the loop stays correct, just less efficient.
//!
//! [`Waker`] gives other threads a way to interrupt a blocked
//! [`Poller::poll`]: a connected loopback TCP pair (the portable equivalent
//! of the classic self-pipe trick), whose read half the event loop
//! registers like any other source.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// What a source wants to be woken for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when a read would make progress (data, EOF, or error).
    pub readable: bool,
    /// Wake when a write would make progress.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// No interest: the source is registered but never woken (used while a
    /// connection is backpressured with nothing to write).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event out of [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Index of the source in the slice passed to [`Poller::poll`].
    pub token: usize,
    /// A read would make progress.
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
}

/// An OS handle a [`Poller`] can watch. Obtained from any socket via
/// [`Source::from_stream`] / [`Source::from_listener`].
#[derive(Debug, Clone, Copy)]
pub struct Source {
    #[cfg(unix)]
    fd: std::os::unix::io::RawFd,
    #[cfg(not(unix))]
    _opaque: (),
}

impl Source {
    /// Watch a TCP stream.
    pub fn from_stream(stream: &TcpStream) -> Source {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            Source {
                fd: stream.as_raw_fd(),
            }
        }
        #[cfg(not(unix))]
        {
            let _ = stream;
            Source { _opaque: () }
        }
    }

    /// Watch a TCP listener (readable = a connection is ready to accept).
    pub fn from_listener(listener: &TcpListener) -> Source {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            Source {
                fd: listener.as_raw_fd(),
            }
        }
        #[cfg(not(unix))]
        {
            let _ = listener;
            Source { _opaque: () }
        }
    }
}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_short, c_void};

    /// `nfds_t`: `unsigned int` on the BSD family, `unsigned long` on Linux.
    #[cfg(any(
        target_os = "macos",
        target_os = "ios",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd"
    ))]
    pub type NFds = std::os::raw::c_uint;
    #[cfg(not(any(
        target_os = "macos",
        target_os = "ios",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd"
    )))]
    pub type NFds = std::os::raw::c_ulong;

    /// `struct pollfd` from `<poll.h>` (identical layout across Unixes).
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    /// `MSG_DONTWAIT` from `<sys/socket.h>`: 0x40 on Linux, 0x80 on the
    /// BSD family and the other Unixes.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const MSG_DONTWAIT: c_int = 0x40;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const MSG_DONTWAIT: c_int = 0x80;

    extern "C" {
        /// `int poll(struct pollfd *fds, nfds_t nfds, int timeout)` — POSIX.
        pub fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: c_int) -> c_int;
        /// `ssize_t recv(int sockfd, void *buf, size_t len, int flags)` —
        /// POSIX.
        pub fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
    }
}

/// How long either end of a data connection keeps checking for bytes
/// without sleeping once it expects them: the event loop after a pass that
/// had events, and [`crate::DlhtClient`] before its blocking read. A
/// pipelined peer usually answers well inside it, so neither thread pays a
/// sleep and a cross-CPU wakeup per round trip; an idle peer costs one
/// budget of polling, then the thread blocks as before.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// One `recv(2)` with `MSG_DONTWAIT` on `fd`: takes whatever the socket
/// holds without blocking, whatever the socket's own blocking mode.
/// `WouldBlock` means nothing has arrived yet; `Ok(0)` is end of stream.
/// The caller must own `fd` (an open socket) for the whole call.
#[cfg(unix)]
pub(crate) fn recv_nonblocking(
    fd: std::os::unix::io::RawFd,
    buf: &mut [u8],
) -> std::io::Result<usize> {
    // SAFETY: `buf` is a live, exclusively borrowed byte slice, and `recv`
    // writes at most `buf.len()` bytes into it; `fd` is an open socket the
    // caller owns for the duration of the call, so the kernel reads no
    // memory of ours and writes none outside `buf`.
    let rc = unsafe { sys::recv(fd, buf.as_mut_ptr().cast(), buf.len(), sys::MSG_DONTWAIT) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(rc as usize)
}

/// The readiness poller (module docs above). Holds only reusable scratch
/// storage; all registration state is the slice passed to each
/// [`Poller::poll`] call, which keeps the event loop's single ownership of
/// its connection table trivial.
#[derive(Debug, Default)]
pub struct Poller {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
}

impl Poller {
    /// A new poller.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Wait until at least one source is ready or `timeout` elapses,
    /// appending one [`Event`] per ready source to `events` (cleared first).
    /// `Event::token` is the source's index in `sources`. Sources with
    /// [`Interest::NONE`] never produce events but are still watched for
    /// hangup once they have read interest again.
    pub fn poll(
        &mut self,
        sources: &[(Source, Interest)],
        timeout: Duration,
        events: &mut Vec<Event>,
    ) -> std::io::Result<()> {
        events.clear();
        #[cfg(unix)]
        {
            self.fds.clear();
            for (source, interest) in sources {
                let mut ev: std::os::raw::c_short = 0;
                if interest.readable {
                    ev |= sys::POLLIN;
                }
                if interest.writable {
                    ev |= sys::POLLOUT;
                }
                self.fds.push(sys::PollFd {
                    fd: source.fd,
                    events: ev,
                    revents: 0,
                });
            }
            let ms: std::os::raw::c_int = timeout
                .as_millis()
                .min(std::os::raw::c_int::MAX as u128)
                .max(if timeout.is_zero() { 0 } else { 1 })
                as std::os::raw::c_int;
            // SAFETY: `fds` is a live, correctly-sized `pollfd` array for the
            // duration of the call; `poll(2)` only writes the `revents` field
            // of each element and reads nothing beyond `len` entries.
            let rc = unsafe { sys::poll(self.fds.as_mut_ptr(), self.fds.len() as sys::NFds, ms) };
            if rc < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(()); // spurious wakeup: the caller just re-polls
                }
                return Err(err);
            }
            for (token, fd) in self.fds.iter().enumerate() {
                if fd.revents == 0 {
                    continue;
                }
                // Error/hangup surface as readable: the next read observes
                // the actual condition (EOF or an io error) and the
                // connection is torn down through the normal path. POLLNVAL
                // (stale fd) is reported the same way.
                let broken = fd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
                let ev = Event {
                    token,
                    readable: fd.revents & sys::POLLIN != 0 || broken,
                    writable: fd.revents & sys::POLLOUT != 0 || broken,
                };
                if ev.readable || ev.writable {
                    events.push(ev);
                }
            }
            Ok(())
        }
        #[cfg(not(unix))]
        {
            // Degraded portable mode: a bounded nap, then report every
            // interested source ready. Non-blocking sockets turn a false
            // positive into one EWOULDBLOCK syscall, so the loop stays
            // correct (see module docs).
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            for (token, (_, interest)) in sources.iter().enumerate() {
                if interest.readable || interest.writable {
                    events.push(Event {
                        token,
                        readable: interest.readable,
                        writable: interest.writable,
                    });
                }
            }
            Ok(())
        }
    }
}

/// The wake half of a loopback socket pair: any thread holding a `Waker`
/// can interrupt the owning event loop's [`Poller::poll`].
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
}

impl Waker {
    // HOT: called by the acceptor on every connection hand-off.
    /// Wake the paired [`WakeReceiver`]'s poll. Best-effort and idempotent:
    /// if the pipe already holds an unread wake byte (`EWOULDBLOCK`), the
    /// loop is guaranteed to wake anyway, and a torn-down receiver means the
    /// loop is already gone.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The receive half: registered in the event loop's source set; drained
/// whenever it polls readable.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: TcpStream,
}

impl WakeReceiver {
    /// The pollable handle for the source set.
    pub fn source(&self) -> Source {
        Source::from_stream(&self.rx)
    }

    /// Swallow all pending wake bytes (level-triggered poll would otherwise
    /// report the pipe readable forever).
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Build a connected waker pair over the loopback interface (the portable
/// self-pipe). Both halves are non-blocking.
pub fn waker_pair() -> std::io::Result<(Waker, WakeReceiver)> {
    let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn timeout_expires_with_no_sources() {
        let mut poller = Poller::new();
        let mut events = Vec::new();
        let t = Instant::now();
        poller
            .poll(&[], Duration::from_millis(30), &mut events)
            .unwrap();
        assert!(events.is_empty());
        assert!(t.elapsed() >= Duration::from_millis(20));
        assert!(t.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn readable_socket_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let mut poller = Poller::new();
        let mut events = Vec::new();
        // Nothing to read yet: interest READ produces no event before data.
        #[cfg(unix)]
        {
            poller
                .poll(
                    &[(Source::from_stream(&rx), Interest::READ)],
                    Duration::from_millis(10),
                    &mut events,
                )
                .unwrap();
            assert!(events.is_empty(), "no data yet");
        }
        tx.write_all(b"ping").unwrap();
        tx.flush().unwrap();
        // Now the source must become readable within the timeout.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .poll(
                    &[(Source::from_stream(&rx), Interest::READ)],
                    Duration::from_millis(50),
                    &mut events,
                )
                .unwrap();
            if events.iter().any(|e| e.token == 0 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "readable event never arrived");
        }
    }

    #[test]
    fn waker_interrupts_a_sleeping_poll() {
        let (waker, mut rx) = waker_pair().unwrap();
        let mut poller = Poller::new();
        let mut events = Vec::new();
        let woken = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
            waker.wake(); // idempotent
            waker // keep the tx side alive for the quiet-check below
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .poll(
                    &[(rx.source(), Interest::READ)],
                    Duration::from_millis(100),
                    &mut events,
                )
                .unwrap();
            if events.iter().any(|e| e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "wake never observed");
        }
        let _waker = woken.join().unwrap();
        // After draining, the pipe is quiet again on Unix (level-triggered).
        // Drain in a loop: the second wake byte may still be in flight.
        #[cfg(unix)]
        loop {
            rx.drain();
            poller
                .poll(
                    &[(rx.source(), Interest::READ)],
                    Duration::from_millis(10),
                    &mut events,
                )
                .unwrap();
            if events.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "drained waker must go quiet");
        }
    }

    #[test]
    fn interest_none_is_never_woken() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.write_all(b"data").unwrap();
        let mut poller = Poller::new();
        let mut events = Vec::new();
        poller
            .poll(
                &[(Source::from_stream(&rx), Interest::NONE)],
                Duration::from_millis(10),
                &mut events,
            )
            .unwrap();
        assert!(events.is_empty(), "NONE interest must stay silent");
    }
}
