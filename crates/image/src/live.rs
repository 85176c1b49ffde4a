//! The live-component core of the out-of-core band scheduler
//! ([`crate::fast::ooc`], the crate's one streaming labeler): a union–find
//! over the components that can still grow, each root holding the
//! component's running [`RetiredComponent`] — perimeter charges included
//! (see [`crate::fast::ooc`]), so the core never reads pixels.
//!
//! The scheduler advances one band per *step* with the paper's scan-line
//! discipline: hold the frontier, retire a component the first step it
//! stops growing. A step drives the core in this order:
//!
//! 1. [`LiveComponents::join`] for every adjacency between the old frontier
//!    and the new input (absorbing unions forward the loser);
//! 2. [`LiveComponents::absorb`] to fold the new input's contribution into a
//!    joined root, and [`LiveComponents::mint`] to open a component that
//!    joined none but reaches the new frontier;
//! 3. [`LiveComponents::touch`] on every root that reaches the new frontier;
//! 4. [`LiveComponents::finish_step`] over the retirement candidates: every
//!    untouched one retires, and the step's forwarded slots are reclaimed.
//!
//! Retired and forwarded slots return to a free list, so the slab tracks
//! *live* components, not total ones.

use crate::stream::RetiredComponent;

/// "No slot yet" in a caller's slot tables.
pub(crate) const NONE: u32 = u32::MAX;

/// A slab slot. `parent == self` marks a root owning a running record; a
/// forwarded slot is garbage until its step ends.
#[derive(Clone, Copy, Debug)]
struct Slot {
    parent: u32,
    /// Stamp of the newest step whose frontier this root reached.
    touched: u64,
    /// Stamp guarding the retirement scan against visiting a root twice.
    scanned: u64,
    rec: RetiredComponent,
}

/// Union–find over live components (see the module docs for the step
/// protocol). Every vector persists across [`LiveComponents::clear`].
#[derive(Debug, Default)]
pub(crate) struct LiveComponents {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Slots forwarded by this step's unions, reclaimed when it finishes.
    forwarded: Vec<u32>,
    /// Current step, counting up from 0.
    stamp: u64,
    /// Peak slab occupancy (see [`LiveComponents::peak`]).
    peak: usize,
}

impl LiveComponents {
    /// Forgets every component, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.forwarded.clear();
        self.stamp = 0;
        self.peak = 0;
    }

    /// Live components. Exact between steps, when every occupied slot is a
    /// root; O(1).
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Maximum slab occupancy, sampled once per step by
    /// [`LiveComponents::finish_step`] after every union and mint and before
    /// anything is freed: the live components plus the step's merge garbage
    /// and the components about to retire.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Bytes of slab capacity reserved.
    pub(crate) fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Slot>()
            + (self.free.capacity() + self.forwarded.capacity()) * size_of::<u32>()
    }

    /// The root of `x`'s set, halving the path on the way.
    #[inline]
    fn resolve(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.slots[x as usize].parent;
            if p == x {
                return x;
            }
            let g = self.slots[p as usize].parent;
            self.slots[x as usize].parent = g;
            x = g;
        }
    }

    /// Folds `rec` into the set of `slot` and returns the set's root.
    #[inline]
    pub(crate) fn absorb(&mut self, slot: u32, rec: &RetiredComponent) -> u32 {
        let s = self.resolve(slot);
        self.slots[s as usize].rec.absorb(rec);
        s
    }

    /// Opens a slot for a new component whose record so far is `rec`. Its
    /// stamps start at `u64::MAX`, which no step reaches: untouched and
    /// unscanned.
    pub(crate) fn mint(&mut self, rec: RetiredComponent) -> u32 {
        let slot = |parent| Slot {
            parent,
            touched: u64::MAX,
            scanned: u64::MAX,
            rec,
        };
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot(s);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("live components exceed u32 slots");
                self.slots.push(slot(s));
                s
            }
        }
    }

    /// One adjacency of the step: the frontier slot `*prev` touches new input
    /// whose slot so far is `*target` ([`NONE`] for none). The target adopts
    /// the frontier component, or the two unite with the target's root
    /// surviving and the other forwarded. Both slots are left resolved.
    #[inline]
    pub(crate) fn join(&mut self, target: &mut u32, prev: &mut u32) {
        let sq = self.resolve(*prev);
        *prev = sq;
        if *target == NONE {
            *target = sq;
            return;
        }
        let keep = self.resolve(*target);
        *target = keep;
        if keep == sq {
            return;
        }
        let rec = self.slots[sq as usize].rec;
        self.slots[keep as usize].rec.absorb(&rec);
        self.slots[sq as usize].parent = keep;
        self.forwarded.push(sq);
    }

    /// Marks root `s` as reaching this step's frontier, so it cannot retire.
    #[inline]
    pub(crate) fn touch(&mut self, s: u32) {
        self.slots[s as usize].touched = self.stamp;
    }

    /// Ends the step: samples [`LiveComponents::peak`], retires every
    /// candidate whose root the step did not touch — calling `emit(record)`
    /// once per retired root, in candidate order — and reclaims the step's
    /// forwarded slots.
    pub(crate) fn finish_step(
        &mut self,
        candidates: impl IntoIterator<Item = u32>,
        mut emit: impl FnMut(&RetiredComponent),
    ) {
        self.peak = self.peak.max(self.live());
        for cand in candidates {
            let s = self.resolve(cand);
            let slot = &mut self.slots[s as usize];
            if slot.scanned == self.stamp {
                continue;
            }
            slot.scanned = self.stamp;
            if slot.touched != self.stamp {
                emit(&slot.rec);
                self.free.push(s);
            }
        }
        self.free.append(&mut self.forwarded);
        self.stamp += 1;
    }
}
