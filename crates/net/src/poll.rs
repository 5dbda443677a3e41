//! Readiness polling over raw file descriptors, `std`-only.
//!
//! The workspace builds offline, so — exactly like the `vendor/` shims
//! replace crates.io dependencies — this module replaces `mio`/`libc`
//! with direct `extern "C"` declarations of the handful of syscall
//! wrappers `std` already links (every Rust binary on unix links the
//! platform libc). Two backends sit behind one [`Poller`] API:
//!
//! * **Linux: `epoll`** — O(ready) readiness delivery, the right shape
//!   for thousands of mostly-idle keep-alive connections (a `poll(2)`
//!   scan is O(registered) *per wake-up*, which at C10K is the work).
//! * **Other unix: `poll(2)`** — portable fallback; the interest list
//!   lives in the `Poller` and is rebuilt into a `pollfd` array per
//!   wait.
//!
//! Each registration carries a caller-chosen `u64` token, handed back
//! verbatim in [`Event`]s; the server's event loop uses tokens to find
//! its per-connection state without a fd→conn map in the kernel's way.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// One readiness report: the registered token plus what the fd can do.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token given at registration.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept), or the peer
    /// half-closed — reading will not block.
    pub readable: bool,
    /// The fd can accept more outbound bytes without blocking.
    pub writable: bool,
    /// The peer hung up or the fd errored; reading drains what remains
    /// and then reports it.
    pub hangup: bool,
}

/// Clamps an optional wait budget to the `int` milliseconds the
/// syscalls take (−1 = wait forever; 0 = poll and return).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! `epoll` backend. The `epoll_event` struct is packed on x86-64
    //! (kernel ABI: 12 bytes, no padding) and naturally laid out
    //! elsewhere — getting this wrong corrupts every second event.

    use super::{timeout_ms, Event};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Readiness poller over an epoll instance.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall wrapper, no pointers involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest,
                data: token,
            };
            let evp = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev as *mut EpollEvent
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            if unsafe { epoll_ctl(self.epfd, op, fd, evp) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn interest(readable: bool, writable: bool) -> u32 {
            let mut events = EPOLLRDHUP;
            if readable {
                events |= EPOLLIN;
            }
            if writable {
                events |= EPOLLOUT;
            }
            events
        }

        pub fn register(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, Self::interest(readable, writable))
        }

        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, Self::interest(readable, writable))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            // SAFETY: `buf` is a valid writable array of `buf.len()`
            // entries; the kernel fills at most that many.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct before use.
                let bits = ev.events;
                let token = ev.data;
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing a fd we own exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! `poll(2)` backend: the interest list is kept here and rebuilt
    //! into a `pollfd` array on every wait — O(registered) per wake-up,
    //! fine at test scale, the reason Linux gets epoll above.

    use super::{timeout_ms, Event};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// Readiness poller over repeated `poll(2)` scans.
    pub struct Poller {
        interests: Vec<(RawFd, u64, bool, bool)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Poller {
                interests: Vec::new(),
            })
        }

        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.interests.push((fd, token, readable, writable));
            Ok(())
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            match self.interests.iter_mut().find(|(f, ..)| *f == fd) {
                Some(slot) => {
                    *slot = (fd, token, readable, writable);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.interests.retain(|(f, ..)| *f != fd);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            if self.interests.is_empty() {
                if let Some(d) = timeout {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "emulates poll(2)'s timeout with no fds, not a backoff"
                    )]
                    std::thread::sleep(d);
                }
                return Ok(());
            }
            let mut fds: Vec<PollFd> = self
                .interests
                .iter()
                .map(|&(fd, _, readable, writable)| PollFd {
                    fd,
                    events: if readable { POLLIN } else { 0 } | if writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            // SAFETY: `fds` is a valid array of `fds.len()` pollfds.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms(timeout)) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (slot, &(_, token, ..)) in fds.iter().zip(self.interests.iter()) {
                let bits = slot.revents;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP) != 0,
                    writable: bits & POLLOUT != 0,
                    hangup: bits & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

/// Platform-neutral readiness poller: register fds under tokens, wait
/// for [`Event`]s. Level-triggered on both backends — an event repeats
/// every wait until the condition is consumed, so a handler that reads
/// or writes less than everything is re-woken, never stuck.
pub struct Poller {
    inner: sys::Poller,
}

// The epoll backend takes `&self` for ctl ops; the poll(2) backend
// mutates its interest list. Present the stricter `&mut self` API so
// both compile identically.
impl Poller {
    /// A fresh poller with no registrations.
    pub fn new() -> io::Result<Self> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Starts watching `fd` under `token` for the given interests.
    pub fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.inner.register(fd, token, readable, writable)
    }

    /// Replaces `fd`'s interests (token may change too).
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.inner.modify(fd, token, readable, writable)
    }

    /// Stops watching `fd` (must be called before the fd closes).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks up to `timeout` (`None` = forever) and fills `events`
    /// with everything ready. An empty result is a timeout, not an
    /// error; `EINTR` is swallowed and reported as empty.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn reports_readable_when_bytes_arrive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, true, false)
            .unwrap();

        // Nothing pending yet: a short wait returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        // A connection attempt makes the listener readable.
        let client = TcpStream::connect(addr).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Accept it and watch the conn itself.
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .register(server_side.as_raw_fd(), 8, true, false)
            .unwrap();
        (&client).write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 8 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(server_side.read(&mut buf).unwrap(), 4);

        poller.deregister(server_side.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn write_interest_and_hangup_are_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        // A fresh socket with an empty send buffer is writable at once.
        poller
            .register(server_side.as_raw_fd(), 1, false, true)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // Peer closes: read interest reports readable (EOF) / hangup.
        poller
            .modify(server_side.as_raw_fd(), 1, true, false)
            .unwrap();
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        poller.deregister(server_side.as_raw_fd()).unwrap();
    }
}
