//! Device-memory accounting: reservations with strict capacity limits.
//!
//! Out-of-memory is a first-class, observable condition here: the paper's
//! whole out-of-GPU section (§IV) exists because allocations fail on an
//! 8 GB part. The algorithms in `hcj-core` reserve every device buffer
//! they hold through [`DeviceMemory::reserve`], and integration tests
//! exercise the failure path.
//!
//! The data itself lives in host-side structures (this is a simulation);
//! a [`Reservation`] only accounts its bytes: reserving consumes capacity,
//! dropping returns it.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::faults::{FaultEventKind, FaultHandle, FaultSite};

/// Error returned when a device allocation does not fit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes the allocation asked for.
    pub requested: u64,
    /// Bytes that were free at the time.
    pub available: u64,
    /// Total device capacity.
    pub capacity: u64,
}

impl fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} B, {} B free of {} B",
            self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

#[derive(Debug)]
struct Accountant {
    capacity: u64,
    used: u64,
    peak: u64,
    /// Bytes currently held by the simulated co-tenant (capacity-shrink
    /// fault events). Included in `used`, released by
    /// [`DeviceMemory::evict_co_tenant`].
    stolen: u64,
}

/// The device-memory allocator: capacity accounting over the modeled
/// device-memory size. Cloning shares the same accountant.
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    inner: Arc<Mutex<Accountant>>,
    /// Armed fault plan: allocation attempts draw capacity-shrink events
    /// from it (a co-tenant stealing free bytes mid-run).
    faults: Option<FaultHandle>,
}

impl DeviceMemory {
    /// A device with `capacity` bytes of global memory.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            inner: Arc::new(Mutex::new(Accountant { capacity, used: 0, peak: 0, stolen: 0 })),
            faults: None,
        }
    }

    /// Arm fault injection: every subsequent allocation attempt may draw a
    /// capacity-shrink event. (Usually called via
    /// [`crate::Gpu::arm_faults`], which shares one plan between ops and
    /// allocations.) Only this handle's clones see the plan; the shared
    /// accountant is unaffected.
    pub fn arm_faults(&mut self, plan: FaultHandle) {
        self.faults = Some(plan);
    }

    /// Bytes currently held by the simulated co-tenant (shrink events).
    pub fn stolen(&self) -> u64 {
        self.inner.lock().expect("device-memory accountant poisoned").stolen
    }

    /// Release everything the co-tenant stole (modeling the co-tenant
    /// finishing); used by tests and teardown paths.
    pub fn evict_co_tenant(&self) {
        let mut g = self.inner.lock().expect("device-memory accountant poisoned");
        g.used -= g.stolen;
        g.stolen = 0;
    }

    /// Draw a capacity-shrink event (if armed) before an allocation of
    /// `requested` bytes: the co-tenant steals a slice of the *free* bytes,
    /// so `used` can never exceed `capacity` — the shrink squeezes the
    /// allocation, it does not corrupt accounting.
    fn maybe_shrink(&self, requested: u64) {
        let Some(plan) = &self.faults else { return };
        let mut plan = plan.lock().expect("fault plan poisoned");
        let mut g = self.inner.lock().expect("device-memory accountant poisoned");
        if let Some(steal) = plan.shrink_bytes(g.capacity - g.used) {
            g.used += steal;
            g.stolen += steal;
            g.peak = g.peak.max(g.used);
            plan.record(
                FaultSite::Alloc,
                FaultEventKind::Shrink { bytes: steal },
                format!("co-tenant steals {steal} B (alloc of {requested} B pending)"),
                None,
            );
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.lock().expect("device-memory accountant poisoned").capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.inner.lock().expect("device-memory accountant poisoned").used
    }

    /// High-water mark of allocated bytes over the accountant's lifetime.
    pub fn peak(&self) -> u64 {
        self.inner.lock().expect("device-memory accountant poisoned").peak
    }

    /// Bytes currently free.
    pub fn available(&self) -> u64 {
        let g = self.inner.lock().expect("device-memory accountant poisoned");
        g.capacity - g.used
    }

    /// Would an allocation of `bytes` succeed right now?
    pub fn fits(&self, bytes: u64) -> bool {
        self.available() >= bytes
    }

    /// Reserve `bytes` of device memory. The contents live in host-side
    /// structures (e.g. partition bucket pools); the reservation takes
    /// part fully in capacity accounting and frees on drop.
    pub fn reserve(&self, bytes: u64) -> Result<Reservation, OutOfDeviceMemory> {
        self.maybe_shrink(bytes);
        {
            let mut g = self.inner.lock().expect("device-memory accountant poisoned");
            if g.capacity - g.used < bytes {
                return Err(OutOfDeviceMemory {
                    requested: bytes,
                    available: g.capacity - g.used,
                    capacity: g.capacity,
                });
            }
            g.used += bytes;
            g.peak = g.peak.max(g.used);
        }
        Ok(Reservation { bytes, owner: Arc::clone(&self.inner) })
    }
}

/// An accounting-only device-memory reservation (see
/// [`DeviceMemory::reserve`]). Frees on drop.
#[derive(Debug)]
pub struct Reservation {
    bytes: u64,
    owner: Arc<Mutex<Accountant>>,
}

impl Reservation {
    /// Accounted size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        let mut g = self.owner.lock().expect("device-memory accountant poisoned");
        g.used -= self.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_round_trip() {
        let mem = DeviceMemory::new(1024);
        assert_eq!(mem.available(), 1024);
        let buf = mem.reserve(512).unwrap();
        assert_eq!(mem.used(), 512);
        assert_eq!(mem.available(), 512);
        drop(buf);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.peak(), 512);
    }

    #[test]
    fn oom_reports_sizes() {
        let mem = DeviceMemory::new(100);
        let _a = mem.reserve(60).unwrap();
        let err = mem.reserve(50).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.available, 40);
        assert_eq!(err.capacity, 100);
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn failed_alloc_does_not_leak_accounting() {
        let mem = DeviceMemory::new(100);
        let _a = mem.reserve(90).unwrap();
        assert!(mem.reserve(20).is_err());
        assert_eq!(mem.used(), 90);
    }

    #[test]
    fn clones_share_accounting() {
        let mem = DeviceMemory::new(1000);
        let view = mem.clone();
        let _buf = mem.reserve(600).unwrap();
        assert_eq!(view.used(), 600);
        assert!(!view.fits(500));
        assert!(view.fits(400));
    }

    #[test]
    fn zero_sized_alloc_ok() {
        let mem = DeviceMemory::new(0);
        let buf = mem.reserve(0).unwrap();
        assert_eq!(buf.size_bytes(), 0);
    }

    #[test]
    fn reservation_accounts_without_storage() {
        let mem = DeviceMemory::new(1000);
        let r = mem.reserve(700).unwrap();
        assert_eq!(mem.used(), 700);
        assert_eq!(r.size_bytes(), 700);
        assert!(mem.reserve(400).is_err());
        drop(r);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.peak(), 700);
    }

    #[test]
    fn reservation_dropped_mid_execution_releases_bytes() {
        // A fault or cancellation drops the Reservation early, out of
        // allocation order; accounting must return every byte regardless.
        let mem = DeviceMemory::new(1000);
        let r = mem.reserve(500).unwrap();
        let buf = mem.reserve(200).unwrap();
        drop(r); // "mid-execution" release, before the buffer
        assert_eq!(mem.used(), 200);
        drop(buf);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.peak(), 700);
    }

    #[test]
    fn shrink_steals_free_bytes_and_peak_stays_within_capacity() {
        use crate::faults::{FaultConfig, FaultPlan};
        let cfg = FaultConfig { shrink_p: 1.0, shrink_fraction: 0.5, ..FaultConfig::disabled(5) };
        let mut mem = DeviceMemory::new(1000);
        mem.arm_faults(FaultPlan::handle(cfg));
        // Every allocation attempt first loses half the free bytes to the
        // co-tenant: 1000 free → steal 500 → 300 fits in the remaining 500.
        let a = mem.reserve(300).unwrap();
        assert_eq!(mem.stolen(), 500);
        assert_eq!(mem.used(), 800);
        // Next attempt shrinks again (steal 100 of the 200 free) and the
        // request no longer fits — typed OOM, accounting intact.
        let err = mem.reserve(150).unwrap_err();
        assert_eq!(err.capacity, 1000);
        assert!(err.available < 150);
        assert!(mem.peak() <= mem.capacity(), "peak must never exceed capacity under shrink");
        assert_eq!(mem.used(), 300 + mem.stolen());
        drop(a);
        mem.evict_co_tenant();
        assert_eq!(mem.used(), 0);
        assert!(mem.peak() <= mem.capacity());
    }

    #[test]
    fn shrink_under_pressure_never_overflows_capacity() {
        use crate::faults::{FaultConfig, FaultPlan};
        let cfg = FaultConfig { shrink_p: 1.0, shrink_fraction: 0.9, ..FaultConfig::disabled(9) };
        let mut mem = DeviceMemory::new(4096);
        mem.arm_faults(FaultPlan::handle(cfg));
        let mut held = Vec::new();
        for _ in 0..64 {
            if let Ok(r) = mem.reserve(64) {
                held.push(r);
            }
            assert!(mem.used() <= mem.capacity());
            assert!(mem.peak() <= mem.capacity());
        }
        // At least one allocation must eventually fail under 90% steals.
        assert!(held.len() < 64);
        held.clear();
        mem.evict_co_tenant();
        assert_eq!(mem.used(), 0);
    }

    #[test]
    fn unarmed_memory_never_shrinks() {
        let mem = DeviceMemory::new(1000);
        for _ in 0..100 {
            let r = mem.reserve(1000).unwrap();
            drop(r);
        }
        assert_eq!(mem.stolen(), 0);
        assert_eq!(mem.peak(), 1000);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mem = DeviceMemory::new(1000);
        let a = mem.reserve(400).unwrap();
        let b = mem.reserve(300).unwrap();
        drop(a);
        let _c = mem.reserve(100).unwrap();
        drop(b);
        assert_eq!(mem.peak(), 700);
    }
}
