//! User-level execution contexts: every simulated rank runs on its own
//! `mmap`'d stack, and all of them run on the OS thread that called
//! [`crate::Sim::run`]. Handing the execution token to another rank is
//! [`switch`]: save the callee-saved registers on the running stack, store
//! its stack pointer, load the other one, restore, return into it. No
//! kernel entry, no condvar, no second thread.
//!
//! A context's first activation enters [`fiber_main`] with a return address
//! of 0 above it, which is where every unwinder — a panic's, a backtrace's —
//! stops walking. The engine catches a rank's panics before they reach that
//! frame (a Rust panic must not unwind out of `extern "C"`; it would abort).
//!
//! Every `unsafe` block here relies on one of two invariants, which the
//! engine upholds and each block names:
//! * *single OS thread*: every context of a simulation is created, resumed
//!   and closed on the thread running that simulation (`Sim`, `Scheduler`
//!   and `RankCtx` hold the engine's core by `Rc` and so are `!Send`: no
//!   context can be carried to another thread);
//! * *target suspended*: the context switched into is not running — it is
//!   parked in [`switch`], or fresh from [`Fiber::new`] — so its saved
//!   stack pointer names a complete frame.
//!
//! Linux only (the `mmap` flag values below are Linux's); x86_64 and
//! aarch64 each have one switch routine.

use std::cell::Cell;
use std::io;
use std::ptr;
use std::rc::Rc;

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("simnet's context switch exists for x86_64 and aarch64 only");

// ---------------------------------------------------------------------------
// Stack memory (libc calls declared here: no new crate).
// ---------------------------------------------------------------------------

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
/// `sysconf(_SC_PAGESIZE)`.
const SC_PAGESIZE: i32 = 30;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// An `mmap`'d stack: a `PROT_NONE` guard page at the low end, so an
/// overflow faults instead of running into the neighbouring mapping.
/// Pages are committed as the rank touches them.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    fn map(size: usize) -> io::Result<Stack> {
        // SAFETY: sysconf has no preconditions.
        let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).unwrap_or(4096);
        let len = size
            .max(1)
            .checked_next_multiple_of(page)
            .and_then(|usable| usable.checked_add(page))
            .ok_or_else(|| io::Error::from(io::ErrorKind::OutOfMemory))?;
        // SAFETY: a fresh anonymous private mapping aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack { base, len };
        // SAFETY: the first page lies inside the mapping just made.
        if unsafe { mprotect(base, page, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base+len` is this stack's own mapping, and no
        // context runs on it any more (`Fiber::close` returned, or it never
        // started).
        unsafe { munmap(self.base, self.len) };
    }
}

// ---------------------------------------------------------------------------
// Contexts and the switch.
// ---------------------------------------------------------------------------

/// A place to suspend an execution context: its saved stack pointer. One
/// per rank, plus one for [`crate::Sim::run`]'s own stack. Every access
/// happens on the simulation's one thread.
pub(crate) struct Context {
    sp: Cell<*mut u8>,
    /// ThreadSanitizer's handle on this context (see [`tsan`]).
    #[cfg(simnet_tsan)]
    fiber: Cell<*mut u8>,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            sp: Cell::new(ptr::null_mut()),
            #[cfg(simnet_tsan)]
            fiber: Cell::new(ptr::null_mut()),
        }
    }
}

/// Suspend the running context into `from` and resume `to`. Returns when
/// some later `switch` names `from` as its target.
///
/// # Safety
/// Single OS thread: the caller runs on the thread of the simulation both
/// contexts belong to, and `from` is the context that is running. Target
/// suspended: `to` is not running and is not `from`. Both outlive the
/// suspension of `from`.
pub(crate) unsafe fn switch(from: &Context, to: &Context) {
    debug_assert!(!ptr::eq(from, to), "a context switched to itself");
    #[cfg(simnet_tsan)]
    tsan::switch(from, to);
    // SAFETY: single OS thread and target suspended, by this function's
    // contract: `from.sp` is writable for the routine, and `to.sp` names a
    // complete frame (saved by `switch_stacks` or laid out by
    // `first_frame`) on a stack nothing else runs on.
    unsafe { switch_stacks(from.sp.as_ptr(), to.sp.get()) }
}

/// What a context runs on its first activation. It returns the context to
/// leave into for good once everything it owned has dropped.
pub(crate) type Body = Box<dyn FnOnce() -> *const Context>;

/// What [`fiber_main`] finds through its argument.
struct Start {
    ctx: *const Context,
    body: Body,
}

/// A rank's stack and the context suspended on it.
pub(crate) struct Fiber {
    stack: Stack,
    ctx: Rc<Context>,
}

impl Fiber {
    /// Map a stack of `size` bytes and lay out a first frame on it, so that
    /// the first [`switch`] into `ctx` runs `body` there. Fails with the
    /// `mmap` error.
    pub(crate) fn new(size: usize, ctx: Rc<Context>, body: Body) -> io::Result<Fiber> {
        let stack = Stack::map(size)?;
        let start = Box::into_raw(Box::new(Start {
            ctx: Rc::as_ptr(&ctx),
            body,
        }));
        // SAFETY: the frame lies in the top bytes of a fresh, writable
        // mapping of at least one page; `top` is 16-aligned.
        let sp = unsafe { first_frame(stack.top(), start.cast()) };
        ctx.sp.set(sp);
        #[cfg(simnet_tsan)]
        tsan::create(&ctx);
        Ok(Fiber { stack, ctx })
    }

    /// Resume this context one last time and unmap its stack once it has
    /// left into `from` for good.
    ///
    /// # Safety
    /// As for [`switch`], with `from` running and this context suspended;
    /// besides, the engine must have arranged that this resume runs the
    /// context's body to its end (its `Body` then returns `from`).
    pub(crate) unsafe fn close(self, from: &Context) {
        // SAFETY: single OS thread and target suspended, by this function's
        // contract.
        unsafe { switch(from, &self.ctx) };
        #[cfg(simnet_tsan)]
        tsan::destroy(&self.ctx);
        drop(self.stack);
    }
}

/// First activation of a context: run its body, then leave for good. Never
/// returns — there is nothing to return to; the return address above this
/// frame is 0, the end of the stack for every unwinder.
extern "C" fn fiber_main(start: *mut Start) -> ! {
    // SAFETY: `start` is the `Box<Start>` that `Fiber::new` leaked for this
    // one first activation.
    let Start { ctx, body } = *unsafe { Box::from_raw(start) };
    let exit = body();
    // SAFETY: single OS thread; `ctx` is this running context and `exit`
    // the suspended one `Fiber::close` switched from. Both outlive this
    // switch: the `Fiber` holds `ctx` until `close` returns, and `exit`
    // belongs to the closer. No frame on this stack owns anything now,
    // and nothing ever switches back into it.
    unsafe { switch(&*ctx, &*exit) };
    std::process::abort()
}

// ---------------------------------------------------------------------------
// x86_64 (System V): rbx, rbp, r12-r15, plus MXCSR's control bits and the
// x87 control word, are callee-saved.
// ---------------------------------------------------------------------------

/// Saved frame, from the stack pointer up: MXCSR (4 bytes) and the x87
/// control word (2) in one 8-byte slot, r15, r14, r13, r12, rbx, rbp, the
/// return address. 64 bytes.
///
/// # Safety
/// Only [`switch`] calls it, under that function's contract: `from_sp` is
/// writable, and `to_sp` is a frame of this layout on a suspended stack.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(from_sp: *mut *mut u8, to_sp: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a fresh frame returns to: pass r12 as the argument and enter r13
/// with a 0 return address (leaving the stack 8 mod 16, as after a call).
///
/// # Safety
/// Never called: only `first_frame` names it, as the return address
/// `switch_stacks` pops, with r12 and r13 restored from that frame.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn first_entry() {
    std::arch::naked_asm!("mov rdi, r12", "push 0", "jmp r13")
}

/// Write a frame at `top` that [`switch_stacks`] restores into
/// `fiber_main(start)`; returns its stack pointer.
///
/// # Safety
/// `top` is 16-aligned with 64 writable bytes below it.
#[cfg(target_arch = "x86_64")]
unsafe fn first_frame(top: *mut u8, start: *mut u8) -> *mut u8 {
    const MXCSR_DEFAULT: u64 = 0x1F80;
    const FPU_CW_DEFAULT: u64 = 0x037F;
    let entry: extern "C" fn(*mut Start) -> ! = fiber_main;
    let frame: [u64; 8] = [
        MXCSR_DEFAULT | FPU_CW_DEFAULT << 32,
        0,                               // r15
        0,                               // r14
        entry as usize as u64,           // r13
        start as u64,                    // r12
        0,                               // rbx
        0,                               // rbp: end of the frame-pointer chain
        first_entry as *const () as u64, // return address
    ];
    let sp = top.wrapping_sub(std::mem::size_of_val(&frame));
    // SAFETY: forwarded from this function's contract.
    unsafe { sp.cast::<[u64; 8]>().write(frame) };
    sp
}

// ---------------------------------------------------------------------------
// aarch64 (AAPCS64): x19-x28, the frame pointer x29, the link register x30
// and the low halves of v8-v15 (d8-d15) are callee-saved.
// ---------------------------------------------------------------------------

/// Saved frame, from the stack pointer up: d8-d15, x19-x28, x29, x30.
/// 160 bytes, keeping the stack 16-aligned throughout.
///
/// # Safety
/// Only [`switch`] calls it, under that function's contract: `from_sp` is
/// writable, and `to_sp` is a frame of this layout on a suspended stack.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(from_sp: *mut *mut u8, to_sp: *mut u8) {
    std::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp d8, d9, [sp, #0]",
        "stp d10, d11, [sp, #16]",
        "stp d12, d13, [sp, #32]",
        "stp d14, d15, [sp, #48]",
        "stp x19, x20, [sp, #64]",
        "stp x21, x22, [sp, #80]",
        "stp x23, x24, [sp, #96]",
        "stp x25, x26, [sp, #112]",
        "stp x27, x28, [sp, #128]",
        "stp x29, x30, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldp d8, d9, [sp, #0]",
        "ldp d10, d11, [sp, #16]",
        "ldp d12, d13, [sp, #32]",
        "ldp d14, d15, [sp, #48]",
        "ldp x19, x20, [sp, #64]",
        "ldp x21, x22, [sp, #80]",
        "ldp x23, x24, [sp, #96]",
        "ldp x25, x26, [sp, #112]",
        "ldp x27, x28, [sp, #128]",
        "ldp x29, x30, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// Where a fresh frame returns to: pass x19 as the argument and enter x20
/// with a 0 link register.
///
/// # Safety
/// Never called: only `first_frame` names it, as the link register
/// `switch_stacks` restores, with x19 and x20 restored from that frame.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn first_entry() {
    std::arch::naked_asm!("mov x0, x19", "mov x30, xzr", "br x20")
}

/// Write a frame at `top` that [`switch_stacks`] restores into
/// `fiber_main(start)`; returns its stack pointer.
///
/// # Safety
/// `top` is 16-aligned with 160 writable bytes below it.
#[cfg(target_arch = "aarch64")]
unsafe fn first_frame(top: *mut u8, start: *mut u8) -> *mut u8 {
    let entry: extern "C" fn(*mut Start) -> ! = fiber_main;
    // d8-d15, then x19..x30; x29 stays 0, the end of the frame-pointer
    // chain.
    let mut frame = [0u64; 20];
    frame[8] = start as u64; // x19
    frame[9] = entry as usize as u64; // x20
    frame[19] = first_entry as *const () as u64; // x30
    let sp = top.wrapping_sub(std::mem::size_of_val(&frame));
    // SAFETY: forwarded from this function's contract.
    unsafe { sp.cast::<[u64; 20]>().write(frame) };
    sp
}

// ---------------------------------------------------------------------------
// ThreadSanitizer: tell it about every stack switch, or it sees one thread
// jump between unrelated stacks. Only the sanitizer CI job sets
// `--cfg simnet_tsan`, together with `-Zsanitizer=thread`.
// ---------------------------------------------------------------------------

#[cfg(simnet_tsan)]
mod tsan {
    use super::Context;

    extern "C" {
        fn __tsan_get_current_fiber() -> *mut u8;
        fn __tsan_create_fiber(flags: u32) -> *mut u8;
        fn __tsan_destroy_fiber(fiber: *mut u8);
        fn __tsan_switch_to_fiber(fiber: *mut u8, flags: u32);
    }

    pub(super) fn create(ctx: &Context) {
        // SAFETY: TSan's fiber API has no preconditions on creation.
        ctx.fiber.set(unsafe { __tsan_create_fiber(0) });
    }

    /// Called on the running context right before the stack switch. The
    /// running fiber is recorded first, which is how `Sim::run`'s own
    /// context (the thread's fiber) gets its handle.
    pub(super) fn switch(from: &Context, to: &Context) {
        // SAFETY: `to.fiber` was created by `create` (a rank) or recorded
        // here when `to` last ran (`Sim::run`'s context); flags 0 make
        // the switch a synchronisation point, as the token handoff is.
        unsafe {
            from.fiber.set(__tsan_get_current_fiber());
            __tsan_switch_to_fiber(to.fiber.get(), 0);
        }
    }

    pub(super) fn destroy(ctx: &Context) {
        // SAFETY: the context has left for good; its fiber is not current.
        unsafe { __tsan_destroy_fiber(ctx.fiber.get()) };
    }
}
