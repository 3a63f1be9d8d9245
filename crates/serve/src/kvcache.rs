//! KV-cache accounting in pages.
//!
//! The KV cache is carved into fixed-size pages of [`PAGE_TOKENS`] token
//! slots. Freed weight memory becomes extra pages — the mechanism by which
//! ZipServ's 3.78 GB of weight savings turns into a 1.70× larger KV cache
//! (Figure 17) and the throughput gains of §6.5. Serving only ever reads
//! how many pages are free, so this module counts pages and names none:
//! [`KvShards`] holds each rank's page budget, the scheduler keeps one
//! count of the pages its residents reserve, and [`PrefixRegistry`]
//! counts the pages cached prefixes hold in refcounted blocks.

use crate::fxhash::FxHashMap;

/// Tokens per KV page (vLLM's default block size).
pub const PAGE_TOKENS: u64 = 16;

/// Pages that hold `tokens` token slots (a partial last page counts whole).
pub fn pages_for(tokens: u64) -> u64 {
    tokens.div_ceil(PAGE_TOKENS)
}

/// Whole pages in a KV region of `capacity_bytes` for a model whose cache
/// costs `bytes_per_token`.
pub fn pages_in(capacity_bytes: u64, bytes_per_token: u64) -> u64 {
    capacity_bytes / bytes_per_token.max(1) / PAGE_TOKENS
}

/// The KV page budget of each rank of a tensor/pipeline-parallel
/// deployment.
///
/// Every rank stores its slice of every sequence's KV (its share of the
/// heads within a stage, its stage's layers across stages), so a sequence
/// holds the same number of pages on every rank, and the rank with the
/// fewest pages runs out first, exactly as one exhausted GPU stalls
/// admission on real hardware. Ranks need not be symmetric: when
/// `kv_heads % tp != 0` or `layers % pp != 0`, some ranks carry more bytes
/// per token and so hold fewer pages; [`KvShards::capacity_tokens`] is
/// therefore the *minimum* over ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvShards {
    rank_pages: Vec<u64>,
}

impl KvShards {
    /// Budgets of `rank_pages[i]` pages on rank `i`.
    ///
    /// # Panics
    ///
    /// Panics if `rank_pages` is empty.
    pub fn new(rank_pages: Vec<u64>) -> Self {
        assert!(!rank_pages.is_empty(), "deployment needs at least one rank");
        KvShards { rank_pages }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.rank_pages.len()
    }

    /// Page budget of rank `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn rank_pages(&self, idx: usize) -> u64 {
        self.rank_pages[idx]
    }

    /// Deployment-wide token capacity: the bottleneck rank's pages.
    pub fn capacity_tokens(&self) -> u64 {
        self.rank_pages.iter().min().map_or(0, |&p| p * PAGE_TOKENS)
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

/// A cached prefix: the chain of blocks holding its KV, how many tokens of
/// it are materialized, how many live requests fork from it, and when it
/// was last touched (LRU clock).
#[derive(Debug, Clone)]
struct PrefixEntry {
    chain: u64,
    tokens: u64,
    refs: u32,
    last_use: u64,
}

/// A live request's fork of a cached prefix: the first `blocks` blocks of
/// the entry's chain, so release can let go of them and un-pin the entry.
#[derive(Debug, Clone, Copy)]
struct ChildFork {
    hash: u64,
    chain: u64,
    blocks: usize,
    saved: u64,
}

/// The pages one materialization or extension allocated, and how many
/// holders (the entry, its forks) still share them.
#[derive(Debug, Clone, Copy)]
struct Block {
    pages: u64,
    holders: u32,
}

/// Interns prefix hashes → cached prefixes, forking on hit so repeated
/// prompts skip their shared-prefix prefill.
///
/// Cached prefixes and their copy-on-write forks draw on the registry's
/// own page budget, the bottleneck rank's, apart from the scheduler's
/// reservations for live requests.
///
/// Pages are counted in refcounted blocks, with the sharing rules of a
/// copy-on-write paged allocator. A miss allocates one block for the whole
/// prefix; extending an entry allocates one block for the pages the longer
/// prefix adds (filling the last page's free slots first). A hit forks the
/// entry: the fork holds every block the entry has at that moment. A block
/// is freed when its last holder lets go, so an entry evicted while
/// requests fork from it leaves exactly their pages held.
#[derive(Debug)]
pub struct PrefixRegistry {
    /// Pages cached prefixes may hold.
    budget: u64,
    /// Pages their blocks hold now.
    used: u64,
    victim: PrefixVictim,
    entries: FxHashMap<u64, PrefixEntry>,
    children: FxHashMap<u64, ChildFork>,
    /// Each entry's blocks in allocation order, for as long as the entry
    /// or a fork of it holds any. Block `i` is held by the entry while it
    /// is cached and by every fork taken after `i` was allocated, so
    /// holder counts never rise along a chain.
    chains: FxHashMap<u64, Vec<Block>>,
    clock: u64,
    next_chain: u64,
    stats: PrefixStats,
}

impl PrefixRegistry {
    /// An empty registry on the bottleneck rank's page budget of `shards`,
    /// evicting per `victim`.
    pub fn new(shards: KvShards, victim: PrefixVictim) -> Self {
        PrefixRegistry {
            budget: shards.capacity_tokens() / PAGE_TOKENS,
            used: 0,
            victim,
            entries: FxHashMap::default(),
            children: FxHashMap::default(),
            chains: FxHashMap::default(),
            clock: 0,
            next_chain: 0,
            stats: PrefixStats::default(),
        }
    }

    /// Consult the cache for request `req` declaring `prefix_len` shared
    /// tokens under `hash` out of a `prompt_len`-token prompt. Returns the
    /// prompt tokens whose prefill is skipped (0 on miss or for
    /// prefix-less requests).
    ///
    /// On a hit the cached prefix is forked copy-on-write for the request
    /// (released again via [`PrefixRegistry::release`]); when the
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
            e.refs += 1;
            e.last_use = self.clock;
            let chain = self
                .chains
                .get_mut(&e.chain)
                .expect("a cached entry holds its blocks");
            for block in chain.iter_mut() {
                block.holders += 1;
            }
            self.children.insert(
                req,
                ChildFork {
                    hash,
                    chain: e.chain,
                    blocks: chain.len(),
                    saved,
                },
            );
            self.stats.hits += 1;
            self.stats.tokens_saved += saved;
            self.stats.pages_shared += pages_for(saved);
            // A follow-up carrying more context than the cache holds
            // extends the entry so the *next* turn hits in full.
            let grow = pages_for(prefix_len).saturating_sub(pages_for(e.tokens));
            if prefix_len > e.tokens && self.used + grow <= self.budget {
                self.used += grow;
                if grow > 0 {
                    chain.push(Block {
                        pages: grow,
                        holders: 1,
                    });
                }
                e.tokens = prefix_len;
            }
            return saved;
        }
        // Miss: materialize the prefix for future requests.
        self.stats.misses += 1;
        let pages = pages_for(prefix_len);
        while self.used + pages > self.budget {
            if !self.evict_one() {
                return 0;
            }
        }
        self.used += pages;
        let chain = self.next_chain;
        self.next_chain += 1;
        self.chains.insert(chain, vec![Block { pages, holders: 1 }]);
        self.entries.insert(
            hash,
            PrefixEntry {
                chain,
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
            self.let_go(child.chain, child.blocks);
            if let Some(e) = self.entries.get_mut(&child.hash) {
                if e.chain == child.chain {
                    e.refs -= 1;
                }
            }
        }
    }

    /// One holder lets go of the first `blocks` blocks of `chain`, freeing
    /// every block it held last.
    fn let_go(&mut self, chain: u64, blocks: usize) {
        let Some(held) = self.chains.get_mut(&chain) else {
            return;
        };
        for block in held.iter_mut().take(blocks) {
            block.holders -= 1;
            if block.holders == 0 {
                self.used -= block.pages;
            }
        }
        if held.first().is_none_or(|b| b.holders == 0) {
            self.chains.remove(&chain);
        }
    }

    /// Evict one entry per the victim policy. Returns `false` when nothing
    /// is evictable.
    fn evict_one(&mut self) -> bool {
        let candidate = self
            .entries
            .iter()
            .filter(|(_, e)| self.victim == PrefixVictim::ActiveSequence || e.refs == 0)
            .min_by_key(|(_, e)| e.last_use)
            .map(|(&h, _)| h);
        let Some(e) = candidate.and_then(|h| self.entries.remove(&h)) else {
            return false;
        };
        self.let_go(e.chain, usize::MAX);
        self.stats.evictions += 1;
        true
    }

    /// Forgets every cached prefix and fork, keeping the counters. A
    /// failed rank held a slice of every cached page, so the scheduler
    /// clears the registry on
    /// [`FaultKind::RankFail`](crate::fault::FaultKind::RankFail): later
    /// releases of the lost forks are no-ops, and each prefix misses once
    /// more before it hits again.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.children.clear();
        self.chains.clear();
        self.used = 0;
    }

    /// Pages cached prefixes and their forks hold now.
    pub fn pages(&self) -> u64 {
        self.used
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PrefixStats {
        self.stats
    }

    /// Asserts that no fork is left — no request holds an entry, and the
    /// pages held are exactly the entries' own — the registry's state once
    /// every request has resolved.
    ///
    /// # Panics
    ///
    /// Panics if a fork leaked.
    pub(crate) fn assert_no_forks(&self) {
        assert!(self.children.is_empty(), "a resolved request kept its fork");
        assert!(
            self.entries.values().all(|e| e.refs == 0),
            "a cached prefix is still pinned"
        );
        let own: u64 = self.entries.values().map(|e| pages_for(e.tokens)).sum();
        assert_eq!(self.used, own, "pages held beyond the cached prefixes");
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn registry(pages: u64, victim: PrefixVictim) -> PrefixRegistry {
        PrefixRegistry::new(KvShards::new(vec![pages]), victim)
    }

    #[test]
    fn capacity_derived_from_bytes() {
        // 1 MiB at 128 bytes/token = 8192 tokens = 512 pages; a partial
        // page of bytes is no page.
        assert_eq!(pages_in(1 << 20, 128), 512);
        assert_eq!(pages_in((1 << 20) + 2047, 128), 512);
        assert_eq!(KvShards::new(vec![512]).capacity_tokens(), 8192);
    }

    #[test]
    fn append_allocates_on_page_boundaries() {
        // Reservations round up to whole pages.
        assert_eq!(
            [0, 1, 16, 17, 32].map(pages_for),
            [0, 1, 1, 2, 2],
            "tokens to pages"
        );
        // Growing a cached prefix fills its last page before taking new
        // ones: 10 tokens hold one page, 16 still one, 17 two.
        let mut r = registry(8, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 10, 64);
        assert_eq!(r.pages(), 1);
        assert_eq!(r.admit(2, 0xA, 16, 64), 10);
        assert_eq!(r.pages(), 1, "the extension fits the first page");
        assert_eq!(r.admit(3, 0xA, 17, 64), 16);
        assert_eq!(r.pages(), 2, "one token spills to a second page");
        r.release(2);
        r.release(3);
        assert_eq!(r.pages(), 2);
    }

    #[test]
    fn one_exhausted_rank_stalls_the_whole_deployment() {
        // Asymmetric ranks (uneven head or layer split): the small rank
        // sets the deployment's capacity, and the cache's budget.
        let s = KvShards::new(vec![2, 8]);
        assert_eq!(s.ranks(), 2);
        assert_eq!((s.rank_pages(0), s.rank_pages(1)), (2, 8));
        assert_eq!(s.capacity_tokens(), 2 * PAGE_TOKENS, "min across ranks");
        let mut r = PrefixRegistry::new(s, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 2 * PAGE_TOKENS, 64);
        assert_eq!(r.pages(), 2);
        // A third page would overflow the small rank: the cold entry goes.
        r.admit(2, 0xB, PAGE_TOKENS, 64);
        assert_eq!(r.stats().evictions, 1);
        assert_eq!(r.pages(), 1);
    }

    #[test]
    fn out_of_pages_is_atomic() {
        // A miss that finds no page and nothing evictable caches nothing.
        let mut r = registry(2, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 2 * PAGE_TOKENS, 64);
        assert_eq!(r.admit(2, 0xA, 2 * PAGE_TOKENS, 64), 32);
        assert_eq!(r.admit(3, 0xB, 1, 64), 0);
        assert_eq!(r.pages(), 2, "failed miss allocated nothing");
        assert_eq!(r.admit(4, 0xB, 1, 64), 0, "0xB was never cached");
        // An extension that does not fit leaves the entry as it was.
        assert_eq!(r.admit(5, 0xA, 3 * PAGE_TOKENS, 64), 32);
        assert_eq!(r.pages(), 2);
        assert_eq!(r.admit(6, 0xA, 3 * PAGE_TOKENS, 64), 32);
    }

    #[test]
    fn fork_shares_pages_copy_on_write() {
        // A hit allocates nothing, so forks fit a cache with no page free.
        let mut r = registry(2, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 2 * PAGE_TOKENS, 64);
        for req in 2..6 {
            assert_eq!(r.admit(req, 0xA, 2 * PAGE_TOKENS, 64), 32);
        }
        assert_eq!(r.pages(), 2);
        assert_eq!(r.stats().pages_shared, 8, "four forks of two pages");
    }

    #[test]
    fn release_returns_pages() {
        // Pages held only by a fork of an evicted entry return to the
        // budget when the fork lets go, and a later miss can use them.
        let mut r = registry(2, PrefixVictim::ActiveSequence);
        r.admit(1, 0xA, 2 * PAGE_TOKENS, 64);
        assert_eq!(r.admit(2, 0xA, 2 * PAGE_TOKENS, 64), 32);
        assert_eq!(r.admit(3, 0xB, PAGE_TOKENS, 64), 0);
        assert_eq!(r.stats().evictions, 1, "0xA evicted, its pages kept");
        assert_eq!(r.admit(4, 0xB, PAGE_TOKENS, 64), 0, "0xB found no page");
        r.release(2);
        assert_eq!(r.pages(), 0);
        r.admit(5, 0xB, PAGE_TOKENS, 64);
        assert_eq!(r.pages(), 1);
        assert_eq!(r.admit(6, 0xB, PAGE_TOKENS, 64), 16, "0xB cached at last");
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
        assert_eq!(r.pages(), 2);
        // Release un-pins the entry and frees nothing (pages stay cached).
        r.release(2);
        assert_eq!(r.pages(), 2);
        // A prefix-less request never touches the registry.
        assert_eq!(r.admit(3, 0, 0, 64), 0);
        assert_eq!(r.stats().lookups, 2);
        r.assert_no_forks();
    }

    #[test]
    fn registry_readmission_does_not_refork() {
        let mut r = registry(8, PrefixVictim::ColdPrefix);
        r.admit(1, 0xAA, 32, 64);
        assert_eq!(r.admit(2, 0xAA, 32, 64), 32);
        // The same request re-admitted (preemption-recompute path) keeps
        // its existing fork: saved tokens count again, pages do not.
        assert_eq!(r.admit(2, 0xAA, 32, 64), 32);
        assert_eq!(r.pages(), 2);
        let s = r.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.pages_shared, 2, "re-admission must not re-count pages");
        r.release(2);
        r.release(2); // idempotent
        r.assert_no_forks();
    }

    #[test]
    fn registry_grows_entry_for_longer_followups() {
        // On a 3-page budget the grown entry fills the budget exactly.
        for budget in [8, 3] {
            let mut r = registry(budget, PrefixVictim::ColdPrefix);
            r.admit(1, 0xAA, 16, 64);
            // A follow-up carrying 48 tokens of the same session hits on the
            // cached 16 and extends the entry to 48.
            assert_eq!(r.admit(2, 0xAA, 48, 64), 16);
            r.release(2);
            // The next turn hits on the grown entry; a shorter prefix under
            // the same hash hits on its own length and shrinks nothing.
            assert_eq!(r.admit(3, 0xAA, 48, 64), 48, "budget {budget}");
            assert_eq!(r.admit(4, 0xAA, 16, 64), 16);
            r.release(3);
            r.release(4);
            assert_eq!(r.pages(), 3);
        }
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
        // the live fork), so cold 0xB goes too before the new prefix fits.
        r.admit(5, 0xC, 32, 64);
        assert_eq!(r.stats().evictions, 2, "pinned LRU entry was evicted");
        // The live fork of 0xA still holds its two pages: with 0xC's two,
        // the cache is full.
        assert_eq!(r.pages(), 4);
        // 0xA itself is gone: the next request misses and re-caches it in
        // 0xC's pages, while the fork keeps the old copy's.
        assert_eq!(r.admit(6, 0xA, 32, 64), 0);
        assert_eq!(r.stats().evictions, 3);
        assert_eq!(r.pages(), 4);
        // Releasing the fork frees the evicted copy's pages.
        r.release(3);
        assert_eq!(r.pages(), 2, "only the re-cached 0xA");
        r.assert_no_forks();
    }

    #[test]
    fn fork_refcounts_survive_any_release_order() {
        // An evicted entry's pages stay held while any fork of it lives,
        // whichever fork lets go first.
        for first in [2, 3] {
            let mut r = registry(3, PrefixVictim::ActiveSequence);
            r.admit(1, 0xA, 40, 64); // 3 pages
            assert_eq!(r.admit(2, 0xA, 40, 64), 40);
            assert_eq!(r.admit(3, 0xA, 40, 64), 40);
            r.admit(4, 0xB, 16, 64); // evicts 0xA, yet finds no page
            assert_eq!(r.stats().evictions, 1);
            assert_eq!(r.pages(), 3, "the forks keep 0xA's pages");
            r.release(first);
            assert_eq!(r.pages(), 3, "shared pages must not be freed early");
            r.release(5 - first);
            assert_eq!(r.pages(), 0, "the last holder frees everything");
        }
    }

    #[test]
    fn forked_child_grows_privately() {
        // A fork holds the blocks its entry had when it forked: pages the
        // entry adds later belong to the entry and to later forks only.
        let mut r = registry(4, PrefixVictim::ActiveSequence);
        r.admit(1, 0xA, PAGE_TOKENS, 64); // 1 page
        assert_eq!(r.admit(2, 0xA, 3 * PAGE_TOKENS, 64), PAGE_TOKENS);
        assert_eq!(r.pages(), 3, "the entry grew by two pages");
        assert_eq!(r.admit(3, 0xA, 3 * PAGE_TOKENS, 64), 3 * PAGE_TOKENS);
        // A 2-page miss evicts the entry but frees nothing: the first page
        // is held by both forks, the extension by the later one.
        assert_eq!(r.admit(4, 0xB, 2 * PAGE_TOKENS, 64), 0);
        assert_eq!(r.stats().evictions, 1);
        assert_eq!(r.pages(), 3);
        r.release(3);
        assert_eq!(r.pages(), 1, "only the first fork's page is left");
        r.release(2);
        assert_eq!(r.pages(), 0);
    }

    #[test]
    fn reset_returns_every_page_and_forgets_sequences() {
        // `clear` (a rank failure) drops every entry and fork at once but
        // keeps the counters.
        let mut r = registry(8, PrefixVictim::ColdPrefix);
        r.admit(1, 0xA, 40, 64);
        assert_eq!(r.admit(2, 0xA, 40, 64), 40);
        let stats = r.stats();
        r.clear();
        assert_eq!(r.pages(), 0);
        assert_eq!(r.stats(), stats, "counters survive a clear");
        r.release(2); // the lost fork: a no-op
        assert_eq!(r.pages(), 0);
        r.assert_no_forks();
        // The cache is fully reusable: the prefix misses once, then hits.
        assert_eq!(r.admit(3, 0xA, 40, 64), 0);
        assert_eq!(r.admit(4, 0xA, 40, 64), 40);
        r.release(4);
        assert_eq!(r.pages(), 3);
    }

    #[test]
    fn more_kv_memory_means_bigger_batches() {
        // The Figure 17 mechanism: ZipServ's freed weight memory (5.07 GB ->
        // 8.60 GB of KV) supports ~1.7x the batch at fixed context.
        let bytes_per_token = 131_072; // LLaMA3.1-8B
        let batch = |bytes: u64| pages_in(bytes, bytes_per_token) / pages_for(2048);
        let ratio = batch(8_600_000_000) as f64 / batch(5_070_000_000) as f64;
        assert!(ratio > 1.55 && ratio < 1.85, "ratio {ratio}");
    }
}
