//! Peak heap demand, counted at the allocator.
//!
//! Peak resident memory (`VmHWM`) is what the process got from the kernel,
//! and it follows the allocator's fragmentation: on `kernel-verify-traced`
//! it ranged from 29 to 58 MB over runs of one seed. The bytes the program
//! holds live at once do not depend on fragmentation, so the benchmark
//! counts them with a thin wrapper around the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// The system allocator, counting live and peak bytes. The counters are
/// statistics that publish no other data, hence `Relaxed`.
pub struct Counting;

/// Live bytes over all threads, as of each thread's last flush.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread folds its changes into [`LIVE`] once they reach this many
/// bytes, so the common small allocation touches no shared cache line; the
/// peak is exact to within this much per thread.
const FLUSH_BYTES: isize = 64 * 1024;

thread_local! {
    // Const-initialized and without a destructor: usable from inside the
    // allocator, where a lazily initialized slot could allocate.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn changed(bytes: isize) {
    let flush = PENDING
        .try_with(|pending| {
            let sum = pending.get() + bytes;
            if sum.abs() < FLUSH_BYTES {
                pending.set(sum);
                0
            } else {
                pending.set(0);
                sum
            }
        })
        .unwrap_or(bytes);
    if flush != 0 {
        let now = LIVE.fetch_add(flush, Relaxed) + flush;
        if now > PEAK.load(Relaxed) {
            PEAK.fetch_max(now, Relaxed);
        }
    }
}

fn grew(bytes: usize) {
    changed(bytes as isize);
}

fn shrank(bytes: usize) {
    changed(-(bytes as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees carry over; the
// counters only observe sizes and never influence an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's guarantees on
        // `new_size`, which `System::realloc` requires.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Most bytes live on the heap at once since the process started, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
