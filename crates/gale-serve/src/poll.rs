//! Readiness waiting for the serving threads: a `poll(2)` shim over raw
//! file descriptors plus a [`Waker`] other threads use to interrupt it.
//!
//! A loop registers its sockets each tick with [`Poller::add`], blocks in
//! [`Poller::wait`] until one is ready (or the timeout passes), then reads
//! per-entry readiness back. Nothing here spins: an idle loop sleeps in
//! the kernel until a socket, the waker, or its own deadline wakes it.
//!
//! On Linux the wait is `poll(2)` through a raw `extern "C"` declaration
//! (the workspace builds without libc), in the style of gale-graph's
//! `mmap(2)` shim. Other targets fall back to a short sleep that reports
//! every entry ready, which is correct (all sockets are nonblocking) but
//! not idle-free.

use std::io::{self, Read, Write};
use std::time::Duration;

#[cfg(target_os = "linux")]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(target_os = "linux")]
use std::os::unix::net::UnixStream;

/// A raw descriptor as the poller sees it.
#[cfg(target_os = "linux")]
pub type Fd = RawFd;
/// A raw descriptor as the poller sees it (unused off Linux).
#[cfg(not(target_os = "linux"))]
pub type Fd = i32;

/// The descriptor of a socket, for [`Poller::add`].
#[cfg(target_os = "linux")]
pub fn fd_of(s: &impl AsRawFd) -> Fd {
    s.as_raw_fd()
}

/// The descriptor of a socket, for [`Poller::add`] (a placeholder off
/// Linux, where the fallback wait ignores descriptors).
#[cfg(not(target_os = "linux"))]
pub fn fd_of<T>(_s: &T) -> Fd {
    -1
}

/// Readiness to read (`POLLIN`).
const POLLIN: i16 = 0x001;
/// Readiness to write (`POLLOUT`).
const POLLOUT: i16 = 0x004;
/// Error condition (`POLLERR`, always reported).
const POLLERR: i16 = 0x008;
/// Peer hung up (`POLLHUP`, always reported).
const POLLHUP: i16 = 0x010;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// The descriptor set of one wait, rebuilt every tick.
#[derive(Default)]
pub struct Poller {
    fds: Vec<PollFd>,
}

impl Poller {
    /// An empty set.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Forgets every registered descriptor.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Registers `fd` for read and/or write readiness and returns its
    /// entry index. Errors and hang-ups are always reported, so an entry
    /// with neither interest still wakes the loop when its peer goes away.
    pub fn add(&mut self, fd: Fd, read: bool, write: bool) -> usize {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Whether entry `i` can be read without blocking (data, end of
    /// stream, or an error to collect).
    pub fn readable(&self, i: usize) -> bool {
        self.fds[i].revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// Blocks until some entry is ready or `timeout` passes (`None` waits
    /// indefinitely). An interrupted wait returns normally; callers
    /// re-check their state either way.
    #[cfg(target_os = "linux")]
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let ms = match timeout {
            None => -1,
            // Round up so a sub-millisecond deadline does not spin.
            Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
        };
        match sys::wait(&mut self.fds, ms) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            other => other,
        }
    }

    /// Fallback wait: sleeps briefly and reports every entry ready.
    #[cfg(not(target_os = "linux"))]
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let nap = Duration::from_micros(500);
        std::thread::sleep(timeout.map_or(nap, |t| t.min(nap)));
        for fd in &mut self.fds {
            fd.revents = fd.events | POLLIN;
        }
        Ok(())
    }
}

/// Wakes a thread blocked in [`Poller::wait`] from any other thread: a
/// connected socket pair whose read end the waiting loop registers. A
/// wake writes one byte (a full buffer already means a wake is pending);
/// the loop drains the bytes after every wait, so no wake is ever lost.
pub struct Waker {
    #[cfg(target_os = "linux")]
    rx: UnixStream,
    #[cfg(target_os = "linux")]
    tx: UnixStream,
}

impl Waker {
    /// A fresh waker.
    #[cfg(target_os = "linux")]
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// A fresh waker (the fallback wait never blocks long, so it is inert).
    #[cfg(not(target_os = "linux"))]
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {})
    }

    /// The descriptor the waiting loop registers for reading.
    pub fn fd(&self) -> Fd {
        #[cfg(target_os = "linux")]
        return self.rx.as_raw_fd();
        #[cfg(not(target_os = "linux"))]
        return -1;
    }

    /// Interrupts the current (or next) wait of the loop that owns this
    /// waker.
    pub fn wake(&self) {
        #[cfg(target_os = "linux")]
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes pending wakes; called by the owning loop after each wait.
    pub fn drain(&self) {
        #[cfg(target_os = "linux")]
        {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

// Scoped like gale-graph's `mmap(2)` wrapper: the crate denies unsafe code
// except for this one audited call.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use super::PollFd;
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// `poll(2)` over `fds`, filling each entry's `revents`.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records and `nfds` is its exact length; the
        // kernel writes only the `revents` fields within it.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }
}
