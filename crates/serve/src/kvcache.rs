//! A PagedAttention-style KV-cache block allocator.
//!
//! The KV cache is carved into fixed-size pages of `PAGE_TOKENS` token
//! slots; each sequence owns a block table of page indices. Freed weight
//! memory becomes extra pages — the mechanism by which ZipServ's 3.78 GB of
//! weight savings turns into a 1.70× larger KV cache (Figure 17) and the
//! throughput gains of §6.5.

use std::collections::HashMap;

/// Tokens per KV page (vLLM's default block size).
pub const PAGE_TOKENS: u64 = 16;

/// Errors from the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// No free pages remain.
    OutOfPages,
    /// The sequence id is not registered.
    UnknownSequence,
    /// The sequence id is already registered (fork targets must be fresh).
    SequenceExists,
}

impl core::fmt::Display for KvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KvError::OutOfPages => write!(f, "KV cache out of pages"),
            KvError::UnknownSequence => write!(f, "unknown sequence id"),
            KvError::SequenceExists => write!(f, "sequence id already registered"),
        }
    }
}

impl std::error::Error for KvError {}

/// The paged KV-cache allocator.
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    total_pages: u64,
    /// Recycled pages, popped LIFO. Pages at or above `next_fresh` have
    /// never been touched and are not materialized here — a pristine
    /// allocator over millions of tokens is O(1) to build and clone, which
    /// is what lets the streaming schedulers take a fresh [`KvShards`] per
    /// run. Allocation order is identical to an eager free list: recycled
    /// pages first (LIFO), then fresh ids counting up from zero.
    free_list: Vec<u64>,
    /// Low-water mark of never-allocated pages: every id `< next_fresh`
    /// has been handed out at least once.
    next_fresh: u64,
    /// Per-page reference counts (copy-on-write forks share pages),
    /// materialized lazily alongside `next_fresh`.
    ref_counts: Vec<u32>,
    /// Sequence id → (block table, tokens stored).
    tables: HashMap<u64, SeqState>,
}

#[derive(Debug, Clone)]
struct SeqState {
    pages: Vec<u64>,
    tokens: u64,
}

impl PagedKvCache {
    /// An allocator over a KV region of `capacity_bytes` for a model whose
    /// cache costs `bytes_per_token`.
    pub fn new(capacity_bytes: u64, bytes_per_token: u64) -> Self {
        let total_tokens = capacity_bytes / bytes_per_token.max(1);
        let total_pages = total_tokens / PAGE_TOKENS;
        PagedKvCache {
            total_pages,
            free_list: Vec::new(),
            next_fresh: 0,
            ref_counts: Vec::new(),
            tables: HashMap::new(),
        }
    }

    /// Total page count.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Currently free pages (recycled plus never-touched).
    pub fn free_pages(&self) -> u64 {
        self.free_list.len() as u64 + (self.total_pages - self.next_fresh)
    }

    /// Total token capacity.
    pub fn capacity_tokens(&self) -> u64 {
        self.total_pages * PAGE_TOKENS
    }

    /// Registers a new sequence with no tokens.
    pub fn register(&mut self, seq: u64) {
        self.tables.entry(seq).or_insert(SeqState {
            pages: Vec::new(),
            tokens: 0,
        });
    }

    /// Appends `tokens` token slots to a sequence, allocating pages as
    /// needed.
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownSequence`] if unregistered;
    /// [`KvError::OutOfPages`] if the cache is exhausted (nothing is
    /// allocated in that case).
    pub fn append(&mut self, seq: u64, tokens: u64) -> Result<(), KvError> {
        let need_pages = self.pages_needed(seq, tokens)?;
        if need_pages > self.free_pages() {
            return Err(KvError::OutOfPages);
        }
        let mut new_pages = Vec::with_capacity(need_pages as usize);
        for _ in 0..need_pages {
            let page = self.free_list.pop().unwrap_or_else(|| {
                let p = self.next_fresh;
                self.next_fresh += 1;
                self.ref_counts.push(0);
                p
            });
            self.ref_counts[page as usize] = 1;
            new_pages.push(page);
        }
        let state = self.tables.get_mut(&seq).expect("checked above");
        state.pages.extend(new_pages);
        state.tokens += tokens;
        Ok(())
    }

    /// Copy-on-write fork: the child shares all of the parent's pages
    /// (beam search / parallel sampling).
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownSequence`] if the parent is unregistered;
    /// [`KvError::SequenceExists`] if the child id is already taken
    /// (silently overwriting it would leak the pages it holds).
    pub fn fork(&mut self, parent: u64, child: u64) -> Result<(), KvError> {
        if self.tables.contains_key(&child) {
            return Err(KvError::SequenceExists);
        }
        let state = self
            .tables
            .get(&parent)
            .ok_or(KvError::UnknownSequence)?
            .clone();
        for &p in &state.pages {
            self.ref_counts[p as usize] += 1;
        }
        self.tables.insert(child, state);
        Ok(())
    }

    /// Releases a sequence, returning its exclusively-owned pages to the
    /// free list.
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownSequence`] if unregistered.
    pub fn release(&mut self, seq: u64) -> Result<(), KvError> {
        let state = self.tables.remove(&seq).ok_or(KvError::UnknownSequence)?;
        for page in state.pages {
            let rc = &mut self.ref_counts[page as usize];
            *rc -= 1;
            if *rc == 0 {
                self.free_list.push(page);
            }
        }
        Ok(())
    }

    /// Tokens currently stored for a sequence.
    pub fn tokens(&self, seq: u64) -> Option<u64> {
        self.tables.get(&seq).map(|s| s.tokens)
    }

    /// The block table (page indices) of a sequence.
    pub fn block_table(&self, seq: u64) -> Option<&[u64]> {
        self.tables.get(&seq).map(|s| s.pages.as_slice())
    }

    /// Largest batch of sequences of `seq_len` tokens that fits.
    pub fn max_batch(&self, seq_len: u64) -> u64 {
        let pages_per_seq = seq_len.div_ceil(PAGE_TOKENS).max(1);
        self.total_pages / pages_per_seq
    }

    /// Free pages needed to append `tokens` slots to `seq` without
    /// mutating anything (the check half of [`PagedKvCache::append`]).
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownSequence`] if unregistered.
    pub fn pages_needed(&self, seq: u64, tokens: u64) -> Result<u64, KvError> {
        let state = self.tables.get(&seq).ok_or(KvError::UnknownSequence)?;
        let have_slots = state.pages.len() as u64 * PAGE_TOKENS - state.tokens;
        Ok(tokens.saturating_sub(have_slots).div_ceil(PAGE_TOKENS))
    }

    /// Drops every sequence and returns all pages to the free list — the
    /// state of a rank whose device memory was lost (power-cycle, ECC
    /// fault). Capacity is unchanged; contents are gone.
    pub fn reset(&mut self) {
        self.free_list.clear();
        self.next_fresh = 0;
        self.ref_counts.clear();
        self.tables.clear();
    }
}

/// The KV cache of a whole tensor/pipeline-parallel deployment: one
/// [`PagedKvCache`] per rank.
///
/// Every rank stores its slice of every sequence's KV (its share of the
/// heads within a stage, its stage's layers across stages), so every
/// allocator operation is mirrored to all ranks — and an
/// [`OutOfPages`](KvError::OutOfPages) on *any* rank fails the whole
/// operation, exactly as one exhausted GPU stalls admission on real
/// hardware. Mirrored appends are atomic: either every rank allocates or
/// none does.
///
/// Ranks need not be symmetric: when `kv_heads % tp != 0` or
/// `layers % pp != 0`, some ranks carry more bytes per token and run out
/// of pages first; [`KvShards::capacity_tokens`] is therefore the *minimum*
/// over ranks.
#[derive(Debug, Clone)]
pub struct KvShards {
    shards: Vec<PagedKvCache>,
    /// `true` for ranks whose device memory is lost (failed GPU). Mirrored
    /// operations skip invalidated ranks so an in-flight release/fork
    /// cannot leak pages on the survivors.
    invalidated: Vec<bool>,
}

impl KvShards {
    /// Wraps explicit per-rank allocators.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<PagedKvCache>) -> Self {
        assert!(!shards.is_empty(), "deployment needs at least one rank");
        let invalidated = vec![false; shards.len()];
        KvShards {
            shards,
            invalidated,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.shards.len()
    }

    /// Number of ranks still holding valid KV (not invalidated).
    pub fn alive_ranks(&self) -> usize {
        self.invalidated.iter().filter(|&&x| !x).count()
    }

    /// Whether rank `idx` has been invalidated by a fault.
    pub fn is_invalidated(&self, idx: usize) -> bool {
        self.invalidated.get(idx).copied().unwrap_or(false)
    }

    /// Read-only view of one rank's allocator.
    pub fn rank(&self, idx: usize) -> &PagedKvCache {
        &self.shards[idx]
    }

    /// Marks a rank's KV shard as lost ([`FaultKind::RankFail`]
    /// (crate::fault::FaultKind)): its allocator is reset (pages freed,
    /// sequences dropped) and every subsequent mirrored operation skips it
    /// until [`KvShards::repair_rank`]. Returns `false` if the rank index
    /// is out of range or already invalidated.
    pub fn invalidate_rank(&mut self, idx: usize) -> bool {
        if idx >= self.shards.len() || self.invalidated[idx] {
            return false;
        }
        self.shards[idx].reset();
        self.invalidated[idx] = true;
        true
    }

    /// Brings an invalidated rank back: its allocator rejoins *cold*
    /// (reset, then re-registered with zero tokens for every sequence live
    /// on the surviving ranks — their KV must be recomputed by prefill).
    /// Returns `false` if the rank is in range but not invalidated.
    pub fn repair_rank(&mut self, idx: usize) -> bool {
        if idx >= self.shards.len() || !self.invalidated[idx] {
            return false;
        }
        let live: Vec<u64> = match self.first_alive() {
            Some(r) => self.shards[r].tables.keys().copied().collect(),
            None => Vec::new(),
        };
        self.shards[idx].reset();
        for seq in live {
            self.shards[idx].register(seq);
        }
        self.invalidated[idx] = false;
        true
    }

    /// Index of the first non-invalidated rank, if any.
    fn first_alive(&self) -> Option<usize> {
        self.invalidated.iter().position(|&x| !x)
    }

    /// Deployment-wide token capacity: the minimum across *alive* ranks
    /// (the first rank to exhaust its pages stalls every other rank).
    /// Zero when every rank is invalidated — nothing can be admitted.
    pub fn capacity_tokens(&self) -> u64 {
        self.shards
            .iter()
            .zip(&self.invalidated)
            .filter(|(_, &dead)| !dead)
            .map(|(s, _)| s.capacity_tokens())
            .min()
            .unwrap_or(0)
    }

    /// Registers a sequence on every alive rank.
    pub fn register(&mut self, seq: u64) {
        for (s, &dead) in self.shards.iter_mut().zip(&self.invalidated) {
            if !dead {
                s.register(seq);
            }
        }
    }

    /// Appends `tokens` slots to `seq` on every alive rank, atomically: if
    /// any alive rank would run out of pages, *no* rank allocates.
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownSequence`] if unregistered on any alive rank (or
    /// every rank is invalidated); [`KvError::OutOfPages`] if any alive
    /// rank lacks free pages.
    pub fn append(&mut self, seq: u64, tokens: u64) -> Result<(), KvError> {
        if self.first_alive().is_none() {
            return Err(KvError::UnknownSequence);
        }
        for (s, &dead) in self.shards.iter().zip(&self.invalidated) {
            if !dead && s.pages_needed(seq, tokens)? > s.free_pages() {
                return Err(KvError::OutOfPages);
            }
        }
        for (s, &dead) in self.shards.iter_mut().zip(&self.invalidated) {
            if !dead {
                s.append(seq, tokens)
                    .expect("checked every alive rank above");
            }
        }
        Ok(())
    }

    /// Copy-on-write fork on every alive rank, atomically: every alive
    /// rank must know the parent and have the child id free before any
    /// rank mutates. Invalidated ranks are skipped — a rank dying
    /// mid-flight must not wedge forks on the survivors.
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownSequence`] if the parent is unregistered on any
    /// alive rank (or every rank is invalidated);
    /// [`KvError::SequenceExists`] if the child id is taken on any.
    pub fn fork(&mut self, parent: u64, child: u64) -> Result<(), KvError> {
        if self.first_alive().is_none() {
            return Err(KvError::UnknownSequence);
        }
        for (s, &dead) in self.shards.iter().zip(&self.invalidated) {
            if dead {
                continue;
            }
            if s.tables.contains_key(&child) {
                return Err(KvError::SequenceExists);
            }
            if !s.tables.contains_key(&parent) {
                return Err(KvError::UnknownSequence);
            }
        }
        for (s, &dead) in self.shards.iter_mut().zip(&self.invalidated) {
            if !dead {
                s.fork(parent, child)
                    .expect("checked every alive rank above");
            }
        }
        Ok(())
    }

    /// Releases a sequence on every alive rank, atomically: every alive
    /// rank must know the sequence before any rank frees it. Invalidated
    /// ranks are skipped — their allocators were reset when the rank died,
    /// so demanding the sequence there would fail every release issued
    /// after a mid-flight failure and leak the survivors' pages forever
    /// (the refcount-leak regression pinned by the chaos suite).
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownSequence`] if unregistered on any alive rank (or
    /// every rank is invalidated).
    pub fn release(&mut self, seq: u64) -> Result<(), KvError> {
        if self.first_alive().is_none() {
            return Err(KvError::UnknownSequence);
        }
        if self
            .shards
            .iter()
            .zip(&self.invalidated)
            .any(|(s, &dead)| !dead && !s.tables.contains_key(&seq))
        {
            return Err(KvError::UnknownSequence);
        }
        for (s, &dead) in self.shards.iter_mut().zip(&self.invalidated) {
            if !dead {
                s.release(seq).expect("checked every alive rank above");
            }
        }
        Ok(())
    }

    /// Tokens stored for a sequence, read from the first alive rank
    /// (identical on every rank that has not rejoined cold after a
    /// repair). `None` when every rank is invalidated.
    pub fn tokens(&self, seq: u64) -> Option<u64> {
        self.shards[self.first_alive()?].tokens(seq)
    }

    /// Live occupancy of rank `idx` in `[0, 1]`: `1 − free_pages /
    /// total_pages` for an alive rank, `1.0` for an invalidated (or
    /// zero-capacity) one — a dead rank admits nothing, so a router reading
    /// pressure steers away from it. O(1): both page counters are reads
    /// off the lazy free-list, which is what makes least-KV-pressure
    /// routing affordable per arrival.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn rank_pressure(&self, idx: usize) -> f64 {
        let s = &self.shards[idx];
        if self.invalidated[idx] || s.total_pages() == 0 {
            1.0
        } else {
            1.0 - s.free_pages() as f64 / s.total_pages() as f64
        }
    }
}

/// Which cached entry a [`PrefixRegistry`] evicts when the cache is full —
/// the eviction axis a [`SchedulePolicy`](crate::policy::SchedulePolicy)
/// answers through `prefix_victim`, the first scheduling decision that
/// reaches into page reclamation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefixVictim {
    /// Evict the least-recently-used *cold* prefix — one no live request
    /// currently forks from. If every cached prefix is pinned by a live
    /// fork, the miss gives up on caching rather than disturb active work.
    #[default]
    ColdPrefix,
    /// Evict the least-recently-used prefix even if live requests fork
    /// from it: copy-on-write refcounts keep the forked children's pages
    /// alive, only the shared cache copy is dropped, so future arrivals
    /// re-prefill while in-flight ones are untouched.
    ActiveSequence,
}

/// Prefix-cache counters carried on a
/// [`ScheduleReport`](crate::scheduler::ScheduleReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Admissions that consulted the registry with a nonzero prefix.
    pub lookups: u64,
    /// Lookups that forked a cached prefix instead of re-prefilling it.
    pub hits: u64,
    /// Lookups that found nothing cached (the prefix is inserted so the
    /// *next* request hits).
    pub misses: u64,
    /// Cached prefixes evicted to make room for new ones.
    pub evictions: u64,
    /// Prompt tokens whose prefill was skipped by forking a cached prefix
    /// — directly proportional to prefill FLOPs saved.
    pub tokens_saved: u64,
    /// KV pages shared copy-on-write between cached prefixes and forked
    /// requests.
    pub pages_shared: u64,
}

impl PrefixStats {
    /// Fraction of lookups that hit; `0.0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Field-wise accumulate (fleet-level aggregation across replicas).
    pub fn merge(&mut self, other: &PrefixStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.tokens_saved += other.tokens_saved;
        self.pages_shared += other.pages_shared;
    }
}

/// A cached prefix: the registry-owned sequence holding its KV, how many
/// tokens of it are materialized, how many live requests fork from it,
/// and when it was last touched (LRU clock).
#[derive(Debug, Clone)]
struct PrefixEntry {
    seq: u64,
    tokens: u64,
    refs: u32,
    last_use: u64,
}

/// A live request's fork of a cached prefix, so release can drop the
/// child sequence and un-pin the entry.
#[derive(Debug, Clone, Copy)]
struct ChildFork {
    hash: u64,
    seq: u64,
    saved: u64,
}

/// Interns prefix hashes → cached sequences on a private [`KvShards`]
/// overlay, forking on hit so repeated prompts skip their shared-prefix
/// prefill.
///
/// The registry owns its *own* shards clone (the engine's pristine
/// proto): cached prefixes and their copy-on-write forks live in this
/// overlay, modeling the KV the cache holds resident, while the
/// scheduler's request-side reservation books are untouched — which is
/// what keeps prefix-caching-off runs bit-identical to the legacy
/// scheduler. Sequence ids are namespaced away from request ids: cache
/// copies count up from `1 << 63`, forked children are `(1 << 62) | req`.
#[derive(Debug)]
pub struct PrefixRegistry {
    shards: KvShards,
    victim: PrefixVictim,
    entries: HashMap<u64, PrefixEntry>,
    children: HashMap<u64, ChildFork>,
    clock: u64,
    next_seq: u64,
    stats: PrefixStats,
}

impl PrefixRegistry {
    /// A registry over a pristine shards clone, evicting per `victim`.
    pub fn new(shards: KvShards, victim: PrefixVictim) -> Self {
        PrefixRegistry {
            shards,
            victim,
            entries: HashMap::new(),
            children: HashMap::new(),
            clock: 0,
            next_seq: 1 << 63,
            stats: PrefixStats::default(),
        }
    }

    /// Consult the cache for request `req` declaring `prefix_len` shared
    /// tokens under `hash` out of a `prompt_len`-token prompt. Returns the
    /// prompt tokens whose prefill is skipped (0 on miss or for
    /// prefix-less requests).
    ///
    /// On a hit the cached sequence is forked copy-on-write for the
    /// request (released again via [`PrefixRegistry::release`]); when the
    /// request's prefix extends past the cached tokens the entry grows
    /// best-effort so a conversation's context accumulates turn over
    /// turn. On a miss the prefix is materialized (evicting per the
    /// victim policy if needed) so future requests hit; the missing
    /// request itself prefills in full through the normal path.
    pub fn admit(&mut self, req: u64, hash: u64, prefix_len: u64, prompt_len: u64) -> u64 {
        if prefix_len == 0 {
            return 0;
        }
        let prefix_len = prefix_len.min(prompt_len);
        self.clock += 1;
        self.stats.lookups += 1;
        // Re-admission after preemption or retry: the fork already exists;
        // count the hit again (the tokens are still skipped) but do not
        // re-fork or re-count shared pages.
        if let Some(child) = self.children.get(&req).copied() {
            if child.hash == hash {
                if let Some(e) = self.entries.get_mut(&hash) {
                    e.last_use = self.clock;
                }
                self.stats.hits += 1;
                self.stats.tokens_saved += child.saved;
                return child.saved;
            }
            self.release(req);
            self.clock += 1;
        }
        if let Some(e) = self.entries.get_mut(&hash) {
            let saved = e.tokens.min(prefix_len);
            let child_seq = (1 << 62) | req;
            if self.shards.fork(e.seq, child_seq).is_ok() {
                e.refs += 1;
                e.last_use = self.clock;
                let cached = e.tokens;
                let cache_seq = e.seq;
                self.stats.hits += 1;
                self.stats.tokens_saved += saved;
                self.stats.pages_shared += saved.div_ceil(PAGE_TOKENS);
                self.children.insert(
                    req,
                    ChildFork {
                        hash,
                        seq: child_seq,
                        saved,
                    },
                );
                // A follow-up carrying more context than the cache holds
                // extends the entry so the *next* turn hits in full.
                if prefix_len > cached && self.shards.append(cache_seq, prefix_len - cached).is_ok()
                {
                    if let Some(e) = self.entries.get_mut(&hash) {
                        e.tokens = prefix_len;
                    }
                }
                return saved;
            }
            self.stats.misses += 1;
            return 0;
        }
        // Miss: materialize the prefix for future requests.
        self.stats.misses += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards.register(seq);
        while self.shards.append(seq, prefix_len).is_err() {
            if !self.evict_one(hash) {
                let _ = self.shards.release(seq);
                return 0;
            }
        }
        self.entries.insert(
            hash,
            PrefixEntry {
                seq,
                tokens: prefix_len,
                refs: 0,
                last_use: self.clock,
            },
        );
        0
    }

    /// Drop `req`'s fork (if any) and un-pin its cached entry. Idempotent:
    /// calling it for a request that never hit is a no-op, so the
    /// scheduler may release at every terminal event (completion,
    /// rejection, retries exhausted).
    pub fn release(&mut self, req: u64) {
        if let Some(child) = self.children.remove(&req) {
            let _ = self.shards.release(child.seq);
            if let Some(e) = self.entries.get_mut(&child.hash) {
                e.refs = e.refs.saturating_sub(1);
            }
        }
    }

    /// Evict one entry per the victim policy, skipping `protect`.
    /// Returns `false` when nothing is evictable.
    fn evict_one(&mut self, protect: u64) -> bool {
        let candidate = self
            .entries
            .iter()
            .filter(|(&h, e)| {
                h != protect && (self.victim == PrefixVictim::ActiveSequence || e.refs == 0)
            })
            .min_by_key(|(_, e)| e.last_use)
            .map(|(&h, _)| h);
        let Some(hash) = candidate else {
            return false;
        };
        if let Some(e) = self.entries.remove(&hash) {
            let _ = self.shards.release(e.seq);
            self.stats.evictions += 1;
        }
        true
    }

    /// Mirror a rank failure into the registry's overlay shards.
    pub fn invalidate_rank(&mut self, idx: usize) -> bool {
        self.shards.invalidate_rank(idx)
    }

    /// Mirror a rank repair into the registry's overlay shards.
    pub fn repair_rank(&mut self, idx: usize) -> bool {
        self.shards.repair_rank(idx)
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PrefixStats {
        self.stats
    }

    /// Read-only view of the overlay shards (leak tests).
    pub fn shards(&self) -> &KvShards {
        &self.shards
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cache_with_pages(pages: u64) -> PagedKvCache {
        PagedKvCache::new(pages * PAGE_TOKENS * 100, 100)
    }

    #[test]
    fn capacity_derived_from_bytes() {
        // 1 MiB at 128 bytes/token = 8192 tokens = 512 pages.
        let c = PagedKvCache::new(1 << 20, 128);
        assert_eq!(c.capacity_tokens(), 8192);
        assert_eq!(c.total_pages(), 512);
    }

    #[test]
    fn append_allocates_on_page_boundaries() {
        let mut c = cache_with_pages(10);
        c.register(1);
        c.append(1, 10).unwrap(); // 1 page
        assert_eq!(c.free_pages(), 9);
        c.append(1, 6).unwrap(); // fills page 1 exactly
        assert_eq!(c.free_pages(), 9);
        c.append(1, 1).unwrap(); // spills to page 2
        assert_eq!(c.free_pages(), 8);
        assert_eq!(c.tokens(1), Some(17));
        assert_eq!(c.block_table(1).unwrap().len(), 2);
    }

    #[test]
    fn out_of_pages_is_atomic() {
        let mut c = cache_with_pages(2);
        c.register(1);
        c.append(1, PAGE_TOKENS * 2).unwrap();
        c.register(2);
        assert_eq!(c.append(2, 1), Err(KvError::OutOfPages));
        assert_eq!(c.free_pages(), 0);
        assert_eq!(c.tokens(2), Some(0), "failed append must not change state");
    }

    #[test]
    fn release_returns_pages() {
        let mut c = cache_with_pages(4);
        c.register(7);
        c.append(7, 50).unwrap(); // 4 pages
        assert_eq!(c.free_pages(), 0);
        c.release(7).unwrap();
        assert_eq!(c.free_pages(), 4);
        assert_eq!(c.tokens(7), None);
    }

    #[test]
    fn fork_shares_pages_copy_on_write() {
        let mut c = cache_with_pages(8);
        c.register(1);
        c.append(1, 32).unwrap(); // 2 pages
        c.fork(1, 2).unwrap();
        assert_eq!(c.free_pages(), 6, "fork allocates nothing");
        assert_eq!(c.block_table(2), c.block_table(1));
        // Releasing the parent keeps shared pages alive.
        c.release(1).unwrap();
        assert_eq!(c.free_pages(), 6);
        c.release(2).unwrap();
        assert_eq!(c.free_pages(), 8);
    }

    #[test]
    fn unknown_sequence_errors() {
        let mut c = cache_with_pages(1);
        assert_eq!(c.append(9, 1), Err(KvError::UnknownSequence));
        assert_eq!(c.release(9), Err(KvError::UnknownSequence));
        assert_eq!(c.fork(9, 10), Err(KvError::UnknownSequence));
    }

    #[test]
    fn max_batch_math() {
        let c = cache_with_pages(100);
        // 100 pages, 160-token sequences need 10 pages each.
        assert_eq!(c.max_batch(160), 10);
        assert_eq!(c.max_batch(1), 100);
    }

    #[test]
    fn fork_refcounts_survive_any_release_order() {
        // Satellite coverage: CoW refcount decrement on free and
        // shared-page release ordering — child released before parent,
        // parent before child, and a grandchild chain.
        let mut c = cache_with_pages(8);
        c.register(1);
        c.append(1, 40).unwrap(); // 3 pages
        c.fork(1, 2).unwrap();
        c.fork(2, 3).unwrap(); // grandchild shares the same 3 pages
        assert_eq!(c.free_pages(), 5);
        // Child-first release: pages stay alive for parent + grandchild.
        c.release(2).unwrap();
        assert_eq!(c.free_pages(), 5, "shared pages must not be freed early");
        // Parent next: grandchild still holds every page.
        c.release(1).unwrap();
        assert_eq!(c.free_pages(), 5);
        assert_eq!(c.block_table(3).unwrap().len(), 3);
        // Last owner frees everything.
        c.release(3).unwrap();
        assert_eq!(c.free_pages(), 8);
    }

    #[test]
    fn forked_child_grows_privately() {
        // Appends after a fork allocate fresh pages for the child only;
        // the shared prefix stays shared.
        let mut c = cache_with_pages(4);
        c.register(1);
        c.append(1, PAGE_TOKENS).unwrap(); // 1 full page
        c.fork(1, 2).unwrap();
        c.append(2, 1).unwrap(); // spills to a private page
        assert_eq!(c.free_pages(), 2);
        assert_eq!(c.block_table(1).unwrap().len(), 1);
        assert_eq!(c.block_table(2).unwrap().len(), 2);
        assert_eq!(c.block_table(1).unwrap()[0], c.block_table(2).unwrap()[0]);
        // Releasing the parent keeps the shared page (child refs it) but
        // releasing the child frees both shared and private pages.
        c.release(1).unwrap();
        assert_eq!(c.free_pages(), 2);
        c.release(2).unwrap();
        assert_eq!(c.free_pages(), 4);
    }

    #[test]
    fn fork_error_paths_leave_state_untouched() {
        let mut c = cache_with_pages(4);
        c.register(1);
        c.append(1, 20).unwrap(); // 2 pages
        assert_eq!(c.fork(99, 100), Err(KvError::UnknownSequence));
        assert_eq!(
            c.tokens(100),
            None,
            "failed fork must not register the child"
        );
        assert_eq!(c.free_pages(), 2);
        // Forking onto a live id is refused — overwriting it would leak
        // its pages (they would keep a positive refcount forever).
        c.register(5);
        c.append(5, 20).unwrap();
        assert_eq!(c.fork(1, 5), Err(KvError::SequenceExists));
        c.release(5).unwrap();
        assert_eq!(c.free_pages(), 2, "refused fork must not leak pages");
        // A forked child hitting OutOfPages on append is atomic too.
        c.fork(1, 2).unwrap();
        c.append(2, PAGE_TOKENS * 10).unwrap_err();
        assert_eq!(
            c.tokens(2),
            Some(20),
            "failed append must not change tokens"
        );
        assert_eq!(c.free_pages(), 2);
        // Double release of the same id is UnknownSequence, not a panic.
        c.release(2).unwrap();
        assert_eq!(c.release(2), Err(KvError::UnknownSequence));
    }

    #[test]
    fn shards_mirror_operations_across_ranks() {
        // Two symmetric ranks: every op lands on both.
        let mut s = KvShards::new(vec![cache_with_pages(4), cache_with_pages(4)]);
        assert_eq!(s.ranks(), 2);
        assert_eq!(s.capacity_tokens(), 4 * PAGE_TOKENS);
        s.register(7);
        s.append(7, 20).unwrap();
        assert_eq!(s.tokens(7), Some(20));
        for r in 0..2 {
            assert_eq!(s.rank(r).free_pages(), 2);
        }
        s.fork(7, 8).unwrap();
        s.release(7).unwrap();
        assert_eq!(s.tokens(7), None);
        assert_eq!(s.tokens(8), Some(20));
        s.release(8).unwrap();
        for r in 0..2 {
            assert_eq!(s.rank(r).free_pages(), 4);
        }
    }

    #[test]
    fn one_exhausted_rank_stalls_the_whole_deployment() {
        // Asymmetric ranks (uneven head or layer split): the small rank
        // runs out first, and the failed append must not leak pages on the
        // big rank.
        let mut s = KvShards::new(vec![cache_with_pages(2), cache_with_pages(8)]);
        assert_eq!(s.capacity_tokens(), 2 * PAGE_TOKENS, "min across ranks");
        s.register(1);
        s.append(1, 2 * PAGE_TOKENS).unwrap();
        assert_eq!(s.append(1, 1), Err(KvError::OutOfPages));
        assert_eq!(s.rank(0).free_pages(), 0);
        assert_eq!(s.rank(1).free_pages(), 6, "atomic: big rank untouched");
        assert_eq!(s.tokens(1), Some(2 * PAGE_TOKENS));
        // Errors surface uniformly for unknown sequences too.
        assert_eq!(s.append(9, 1), Err(KvError::UnknownSequence));
        assert_eq!(s.release(9), Err(KvError::UnknownSequence));
        assert_eq!(s.fork(9, 10), Err(KvError::UnknownSequence));
        assert_eq!(s.fork(1, 1), Err(KvError::SequenceExists));
    }

    #[test]
    fn divergent_shard_sets_error_instead_of_panicking() {
        // KvShards::new accepts caller-built allocators, so a sequence
        // registered on only some ranks must surface as an error on every
        // mirrored operation — never a panic, and never a partial mutation.
        let mut lopsided = cache_with_pages(4);
        lopsided.register(1);
        lopsided.append(1, 16).unwrap();
        let mut s = KvShards::new(vec![lopsided, cache_with_pages(4)]);
        assert_eq!(s.release(1), Err(KvError::UnknownSequence));
        assert_eq!(s.append(1, 1), Err(KvError::UnknownSequence));
        assert_eq!(s.fork(1, 2), Err(KvError::UnknownSequence));
        assert_eq!(s.rank(0).free_pages(), 3, "no partial mutation");
        assert_eq!(s.rank(1).free_pages(), 4);
        // Registering on all ranks heals the divergence for new ops.
        s.register(1);
        assert_eq!(s.rank(1).tokens(1), Some(0));
        s.append(1, 1).unwrap();
        s.release(1).unwrap();
    }

    #[test]
    fn reset_returns_every_page_and_forgets_sequences() {
        let mut c = cache_with_pages(4);
        c.register(1);
        c.append(1, 40).unwrap();
        c.fork(1, 2).unwrap();
        c.reset();
        assert_eq!(c.free_pages(), 4);
        assert_eq!(c.tokens(1), None);
        assert_eq!(c.tokens(2), None);
        // The allocator is fully reusable after a reset.
        c.register(1);
        c.append(1, 64).unwrap();
        assert_eq!(c.free_pages(), 0);
    }

    #[test]
    fn invalidated_rank_cannot_leak_pages_on_release() {
        // The mid-flight invalidation regression: a sequence admitted on
        // every rank, then rank 1 dies. Its table was reset, so a release
        // that insisted on finding the sequence on *all* ranks would error
        // and strand the survivors' pages with positive refcounts forever.
        let mut s = KvShards::new(vec![cache_with_pages(4), cache_with_pages(4)]);
        s.register(7);
        s.append(7, 40).unwrap(); // 3 pages on each rank
        assert!(s.invalidate_rank(1));
        assert!(!s.invalidate_rank(1), "double invalidation is a no-op");
        assert!(!s.invalidate_rank(9), "out of range is a no-op");
        assert_eq!(s.alive_ranks(), 1);
        assert!(s.is_invalidated(1));
        assert_eq!(s.rank(1).free_pages(), 4, "dead rank's pages are freed");
        // Release succeeds on the survivor and frees its pages.
        s.release(7).unwrap();
        assert_eq!(s.rank(0).free_pages(), 4, "no leaked refcounts");
        assert_eq!(s.release(7), Err(KvError::UnknownSequence));
    }

    #[test]
    fn fork_and_append_skip_invalidated_ranks() {
        let mut s = KvShards::new(vec![cache_with_pages(8), cache_with_pages(8)]);
        s.register(1);
        s.append(1, 32).unwrap();
        assert!(s.invalidate_rank(0));
        // Mirror ops keep working on the survivor; the dead rank is inert.
        s.fork(1, 2).unwrap();
        s.append(2, 1).unwrap();
        assert_eq!(s.tokens(2), Some(33), "read from the first alive rank");
        assert_eq!(s.rank(0).free_pages(), 8, "dead rank untouched");
        // Capacity comes from alive ranks only.
        assert_eq!(s.capacity_tokens(), 8 * PAGE_TOKENS);
        s.release(1).unwrap();
        s.release(2).unwrap();
        assert_eq!(s.rank(1).free_pages(), 8);
    }

    #[test]
    fn repaired_rank_rejoins_cold_and_serves_again() {
        let mut s = KvShards::new(vec![cache_with_pages(8), cache_with_pages(8)]);
        s.register(1);
        s.append(1, 32).unwrap();
        assert!(s.invalidate_rank(1));
        assert!(!s.repair_rank(0), "repairing an alive rank is a no-op");
        assert!(s.repair_rank(1));
        assert_eq!(s.alive_ranks(), 2);
        // The repaired rank knows every live sequence but holds no KV for
        // it yet — recompute-prefill must refill it.
        assert_eq!(s.rank(1).tokens(1), Some(0));
        assert_eq!(s.rank(0).tokens(1), Some(32));
        // New work lands on both ranks again.
        s.append(1, PAGE_TOKENS).unwrap();
        assert_eq!(s.rank(1).tokens(1), Some(PAGE_TOKENS));
        s.release(1).unwrap();
        assert_eq!(s.rank(0).free_pages(), 8);
        assert_eq!(s.rank(1).free_pages(), 8);
    }

    #[test]
    fn all_ranks_invalidated_errors_instead_of_panicking() {
        let mut s = KvShards::new(vec![cache_with_pages(2)]);
        s.register(1);
        assert!(s.invalidate_rank(0));
        assert_eq!(s.alive_ranks(), 0);
        assert_eq!(s.capacity_tokens(), 0, "no capacity without ranks");
        assert_eq!(s.tokens(1), None);
        assert_eq!(s.append(1, 1), Err(KvError::UnknownSequence));
        assert_eq!(s.fork(1, 2), Err(KvError::UnknownSequence));
        assert_eq!(s.release(1), Err(KvError::UnknownSequence));
    }

    #[test]
    fn pressure_tracks_reservations_and_faults() {
        // Asymmetric ranks: the small rank's occupancy climbs faster, and
        // the values are exactly what a least-KV-pressure router reads.
        let mut s = KvShards::new(vec![cache_with_pages(4), cache_with_pages(8)]);
        let pressure = |s: &KvShards| [s.rank_pressure(0), s.rank_pressure(1)];
        assert_eq!(pressure(&s), [0.0, 0.0]);
        s.register(1);
        s.append(1, 2 * PAGE_TOKENS).unwrap(); // 2 pages on each rank
        assert_eq!(pressure(&s), [0.5, 0.25]);
        // Release drops pressure back to idle.
        s.release(1).unwrap();
        assert_eq!(pressure(&s), [0.0, 0.0]);
        // A dead rank reads as fully pressured until repaired.
        s.register(2);
        s.append(2, PAGE_TOKENS).unwrap();
        assert!(s.invalidate_rank(0));
        let p = pressure(&s);
        assert_eq!(p[0], 1.0, "invalidated rank must repel routing");
        assert!((p[1] - 0.125).abs() < 1e-12);
        assert!(s.repair_rank(0));
        assert_eq!(s.rank_pressure(0), 0.0, "repaired rank rejoins cold");
    }

    fn registry(pages: u64, victim: PrefixVictim) -> PrefixRegistry {
        PrefixRegistry::new(KvShards::new(vec![cache_with_pages(pages)]), victim)
    }

    #[test]
    fn registry_miss_then_hit_forks_and_counts() {
        let mut r = registry(8, PrefixVictim::ColdPrefix);
        // First sight of a prefix: a miss that materializes it.
        assert_eq!(r.admit(1, 0xAA, 32, 64), 0);
        let s = r.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (1, 0, 1));
        // Second request with the same hash forks and skips 32 tokens.
        assert_eq!(r.admit(2, 0xAA, 32, 64), 32);
        let s = r.stats();
        assert_eq!((s.lookups, s.hits, s.tokens_saved), (2, 1, 32));
        assert_eq!(s.pages_shared, 2);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        // The fork is copy-on-write: no extra pages were allocated.
        assert_eq!(r.shards().rank(0).free_pages(), 6);
        // Release un-pins the entry and frees nothing (pages stay cached).
        r.release(2);
        assert_eq!(r.shards().rank(0).free_pages(), 6);
        // A prefix-less request never touches the registry.
        assert_eq!(r.admit(3, 0, 0, 64), 0);
        assert_eq!(r.stats().lookups, 2);
    }

    #[test]
    fn registry_readmission_does_not_refork() {
        let mut r = registry(8, PrefixVictim::ColdPrefix);
        r.admit(1, 0xAA, 32, 64);
        assert_eq!(r.admit(2, 0xAA, 32, 64), 32);
        let pages = r.shards().rank(0).free_pages();
        // The same request re-admitted (preemption-recompute path) keeps
        // its existing fork: saved tokens count again, pages do not.
        assert_eq!(r.admit(2, 0xAA, 32, 64), 32);
        assert_eq!(r.shards().rank(0).free_pages(), pages);
        let s = r.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.pages_shared, 2, "re-admission must not re-count pages");
        r.release(2);
        r.release(2); // idempotent
    }

    #[test]
    fn registry_grows_entry_for_longer_followups() {
        let mut r = registry(8, PrefixVictim::ColdPrefix);
        r.admit(1, 0xAA, 16, 64);
        // A follow-up carrying 48 tokens of the same session hits on the
        // cached 16 and extends the entry to 48.
        assert_eq!(r.admit(2, 0xAA, 48, 64), 16);
        r.release(2);
        // The next turn hits on the grown entry.
        assert_eq!(r.admit(3, 0xAA, 48, 64), 48);
    }

    #[test]
    fn cold_prefix_eviction_spares_pinned_entries() {
        // 4 pages: two 2-page prefixes fill the cache.
        let mut r = registry(4, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 32, 64);
        r.admit(2, 0xB, 32, 64);
        // Pin 0xA with a live fork; 0xB stays cold.
        assert_eq!(r.admit(3, 0xA, 32, 64), 32);
        // A new prefix evicts the cold LRU entry (0xB), not the pinned one.
        r.admit(4, 0xC, 32, 64);
        assert_eq!(r.stats().evictions, 1);
        assert_eq!(r.admit(5, 0xA, 32, 64), 32, "pinned entry survived");
        r.release(3);
        r.release(5);
    }

    #[test]
    fn released_hit_unpins_its_entry_for_eviction() {
        // 2 pages: one 2-page prefix fills the cache.
        let mut r = registry(2, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 32, 64);
        assert_eq!(r.admit(2, 0xA, 32, 64), 32);
        r.release(2);
        // The released hit left 0xA cold, so a miss that needs its pages
        // evicts it and caches the new prefix.
        r.admit(3, 0xB, 32, 64);
        assert_eq!(r.stats().evictions, 1);
        assert_eq!(r.admit(4, 0xB, 32, 64), 32, "new prefix cached");
        r.release(4);
    }

    #[test]
    fn hit_counts_a_partial_last_page_as_shared() {
        // 17 cached tokens span two 16-token pages.
        let mut r = registry(8, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 17, 64);
        assert_eq!(r.admit(2, 0xA, 17, 64), 17);
        assert_eq!(r.stats().pages_shared, 2);
        r.release(2);
    }

    #[test]
    fn cold_prefix_gives_up_when_everything_is_pinned() {
        let mut r = registry(4, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 32, 64);
        r.admit(2, 0xB, 32, 64);
        r.admit(3, 0xA, 32, 64);
        r.admit(4, 0xB, 32, 64);
        // Both entries pinned: the new prefix cannot be cached, the
        // request just prefills in full (0 saved), nothing is evicted.
        assert_eq!(r.admit(5, 0xC, 32, 64), 0);
        assert_eq!(r.stats().evictions, 0);
        assert_eq!(r.admit(6, 0xA, 32, 64), 32, "pinned entries intact");
    }

    #[test]
    fn active_sequence_eviction_keeps_forked_children_alive() {
        let mut r = registry(4, PrefixVictim::ActiveSequence);
        r.admit(1, 0xA, 32, 64);
        r.admit(2, 0xB, 32, 64);
        // Pin 0xA with a live fork. ActiveSequence evicts the LRU entry
        // even when it is pinned — 0xA was just touched by the hit, so LRU
        // is 0xB here; force the interesting case by touching 0xB last so
        // pinned 0xA becomes the LRU victim.
        assert_eq!(r.admit(3, 0xA, 32, 64), 32);
        assert_eq!(r.admit(4, 0xB, 32, 64), 32);
        r.release(4);
        // Evicting pinned 0xA frees nothing (its pages are CoW-shared with
        // the live fork), so cold 0xB goes too before the append fits.
        r.admit(5, 0xC, 32, 64);
        assert_eq!(r.stats().evictions, 2, "pinned LRU entry was evicted");
        // The live fork of 0xA still holds its pages copy-on-write.
        assert_eq!(r.shards().tokens((1 << 62) | 3), Some(32));
        // 0xA itself is gone: the next request misses and re-caches.
        assert_eq!(r.admit(6, 0xA, 32, 64), 0);
        r.release(3);
    }

    #[test]
    fn registry_survives_rank_failure_without_leaks() {
        // Chaos unit: cached prefix + live forks across an
        // invalidate/repair cycle must not leak pages on any rank.
        let mut r = PrefixRegistry::new(
            KvShards::new(vec![cache_with_pages(8), cache_with_pages(8)]),
            PrefixVictim::ColdPrefix,
        );
        r.admit(1, 0xA, 32, 64);
        assert_eq!(r.admit(2, 0xA, 32, 64), 32);
        assert!(r.invalidate_rank(1));
        // Release of a fork admitted before the failure must not error or
        // leak on the survivor.
        r.release(2);
        // Hits keep working on the survivor while rank 1 is dark.
        assert_eq!(r.admit(3, 0xA, 32, 64), 32);
        assert!(r.repair_rank(1));
        // The repaired rank rejoined cold: the cached sequence exists with
        // zero tokens there, and releases stay balanced.
        r.release(3);
        assert_eq!(r.shards().rank(1).free_pages(), 8, "no pages leaked");
        // Post-repair forks allocate nothing on the cold rank either.
        assert_eq!(r.admit(4, 0xA, 32, 64), 32);
        r.release(4);
        assert_eq!(r.shards().rank(0).free_pages(), 6, "only the cache copy");
        assert_eq!(r.shards().rank(1).free_pages(), 8);
    }

    #[test]
    fn more_kv_memory_means_bigger_batches() {
        // The Figure 17 mechanism: ZipServ's freed weight memory (5.07 GB ->
        // 8.60 GB of KV) supports ~1.7x the batch at fixed context.
        let bytes_per_token = 131_072; // LLaMA3.1-8B
        let vllm = PagedKvCache::new(5_070_000_000, bytes_per_token);
        let zip = PagedKvCache::new(8_600_000_000, bytes_per_token);
        let ratio = zip.max_batch(2048) as f64 / vllm.max_batch(2048) as f64;
        assert!(ratio > 1.55 && ratio < 1.85, "ratio {ratio}");
    }
}
