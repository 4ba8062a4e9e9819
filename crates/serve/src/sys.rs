//! Raw Linux `epoll`/`eventfd`/`rlimit` bindings — the only `unsafe`
//! in the workspace, confined to this module.
//!
//! The serving layer needs three kernel facilities the standard
//! library does not expose: readiness multiplexing
//! (`epoll_create1`/`epoll_ctl`/`epoll_wait`) and a cheap cross-thread
//! wakeup primitive (`eventfd`) for the reactor ([`crate::reactor`]),
//! and the file-descriptor budget (`getrlimit`/`setrlimit`) for
//! processes that hold both ends of many connections.
//! In the spirit of the vendored JSON/PRNG, the bindings are declared
//! by hand against the C ABI the process already links (std itself
//! links libc) instead of pulling in the `libc` crate.
//!
//! Everything exported from here is a safe wrapper: [`Epoll`] and
//! [`EventFd`] own their descriptors and close them on drop, and every
//! call translates `-1` into `std::io::Error`. The module — and with
//! it the serving layer — is Linux-only, like the perf counters the
//! paper's measurements already depend on.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

/// One readiness notification, matching the kernel's
/// `struct epoll_event` layout (packed on x86-64).
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of [`EPOLLIN`], [`EPOLLOUT`], [`EPOLLERR`], … flags.
    pub events: u32,
    /// The caller's token, returned verbatim (we store connection
    /// tokens here).
    pub data: u64,
}

/// The descriptor is readable.
pub const EPOLLIN: u32 = 0x001;
/// The descriptor is writable.
pub const EPOLLOUT: u32 = 0x004;
/// An error condition is pending.
pub const EPOLLERR: u32 = 0x008;
/// The peer hung up.
pub const EPOLLHUP: u32 = 0x010;
/// The peer shut down its writing half (half-close).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const RLIMIT_NOFILE: i32 = 7;

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance: register descriptors with tokens, wait for
/// readiness.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        check(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Register `fd` for `events`, tagging notifications with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Remove `fd` from the interest set (closing the descriptor also
    /// removes it; this just makes the removal explicit).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block for up to `timeout_ms` (-1 = forever) and fill `events`
    /// with ready descriptors; returns how many are valid. `EINTR`
    /// reads as zero events rather than an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid writable buffer of the stated
        // length for the duration of the call.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the descriptor and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// An owned eventfd: a 64-bit counter the kernel turns into epoll
/// readiness — the reactor's cross-thread doorbell.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Ring the doorbell: add 1 to the counter, waking any epoll that
    /// watches the descriptor. Safe to call from any thread.
    pub fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a valid local; short writes are
        // impossible for eventfds and errors (EAGAIN on counter
        // overflow) are ignorable — the receiver is already awake.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the counter so level-triggered epoll stops reporting the
    /// descriptor readable.
    pub fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: reads 8 bytes into a valid local; EAGAIN (already
        // drained by a racing read) is fine to ignore.
        unsafe { read(self.fd, (&mut count as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the descriptor and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// Raise the process's soft `RLIMIT_NOFILE` toward `want` descriptors
/// (clamped to the hard limit) and return the resulting soft limit.
/// A process that holds both ends of many connections, like the
/// thousand-connection serve test, calls this before opening them; on
/// failure the current limit is returned unchanged.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut limit = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `limit` is a valid out-pointer.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } != 0 {
        return 0;
    }
    if want <= limit.rlim_cur {
        return limit.rlim_cur;
    }
    let target = Rlimit {
        rlim_cur: want.min(limit.rlim_max),
        rlim_max: limit.rlim_max,
    };
    // SAFETY: `target` is a valid in-pointer; failure leaves the old
    // limit in place, which the fallback return reports honestly.
    if unsafe { setrlimit(RLIMIT_NOFILE, &target) } == 0 {
        target.rlim_cur
    } else {
        limit.rlim_cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let epoll = Epoll::new().unwrap();
        let doorbell = EventFd::new().unwrap();
        epoll.add(doorbell.raw(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "nothing rung yet");

        doorbell.signal();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (flags, token) = (events[0].events, events[0].data);
        assert_ne!(flags & EPOLLIN, 0);
        assert_eq!(token, 7);

        doorbell.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn sockets_report_readability_through_epoll() {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll
            .add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (flags, token) = (events[0].events, events[0].data);
        assert_eq!(token, 42);
        assert_ne!(flags & EPOLLIN, 0);

        epoll.delete(server_side.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        assert_eq!(epoll.wait(&mut events, 50).unwrap(), 0, "deregistered");
    }

    #[test]
    fn nofile_limit_is_queryable() {
        let current = raise_nofile_limit(0);
        assert!(current > 0, "every process has a descriptor budget");
        // Asking for what we already have is a no-op.
        assert_eq!(raise_nofile_limit(current.min(64)), current);
    }
}
