#include "core/ft_ocbcast.h"

#include <cstring>
#include <sstream>

#include "common/require.h"
#include "rma/rma.h"

namespace ocb::core {

namespace {

// Fault-tolerance budgets. Each has only ever had one value, and the fault
// tests and sweeps are calibrated against these, so they are not options.

/// Watchdog deadline + reliable-write retry policy for all control lines.
constexpr rma::WatchdogPolicy kWatchdog{};
/// Consecutive watchdog expiries without progress before a silent peer is
/// presumed dead. A live peer must make per-chunk progress faster than
/// kProbeAttempts * kWatchdog.timeout or it will be routed around.
constexpr int kProbeAttempts = 3;
/// Checksum-mismatch refetches before a fetch counts as a failed attempt.
constexpr int kGetRetries = 3;
/// Total detect+fetch attempts per chunk before a core gives up.
constexpr int kMaxChunkAttempts = 64;

TreeLayout checked_layout(const coll::Params& p) {
  OCB_REQUIRE(p.k >= 1 && p.k <= p.parties - 1,
              "fan-out must be in [1, parties-1]");
  OCB_REQUIRE(p.chunk_lines >= 1, "chunk must be at least one line");
  const TreeLayout layout = TreeLayout::of(p, p.k, /*staged=*/true);
  OCB_REQUIRE(layout.fits(),
              "FT-OC-Bcast layout (flags + staged + buffers + fence) exceeds "
              "the 256-line MPB");
  return layout;
}

}  // namespace

FtOcBcast::FtOcBcast(scc::SccChip& chip, const coll::Params& params)
    : chip_(&chip),
      params_(coll::resolved(params, chip)),
      layout_(checked_layout(params_)),
      calls_(chip, layout_.fence_line(), params_.parties) {
  const auto n = static_cast<std::size_t>(chip.topology().num_cores());
  reports_.assign(n, DeliveryReport{});
  presumed_dead_.assign(n, std::vector<bool>(n, false));
}

std::string FtOcBcast::name() const {
  std::ostringstream os;
  os << "ft-oc-bcast k=" << params_.k;
  if (!params_.double_buffering) os << " single-buffer";
  return os.str();
}

namespace {
// Tag guarding the staged line against corrupted reads: FNV-1a over the
// (seq, sum) pair. A reader that fails validation treats the line as
// not-yet-staged and re-polls — a bit flip can delay detection but never
// fake a publication (or a fall-behind).
std::uint64_t staged_tag(std::uint64_t seq, std::uint64_t sum) {
  std::uint64_t h = rma::checked_flag_tag(seq);
  for (int i = 0; i < 8; ++i) {
    h ^= (sum >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

CacheLine FtOcBcast::encode_staged(std::uint64_t seq, std::uint64_t sum) {
  CacheLine cl{};
  const std::uint64_t tag = staged_tag(seq, sum);
  std::memcpy(cl.bytes.data(), &seq, sizeof seq);
  std::memcpy(cl.bytes.data() + sizeof seq, &sum, sizeof sum);
  std::memcpy(cl.bytes.data() + 2 * sizeof seq, &tag, sizeof tag);
  return cl;
}

FtOcBcast::Staged FtOcBcast::decode_staged(const CacheLine& cl) {
  Staged s;
  std::uint64_t tag;
  std::memcpy(&s.seq, cl.bytes.data(), sizeof s.seq);
  std::memcpy(&s.sum, cl.bytes.data() + sizeof s.seq, sizeof s.sum);
  std::memcpy(&tag, cl.bytes.data() + 2 * sizeof s.seq, sizeof tag);
  s.valid = tag == staged_tag(s.seq, s.sum);
  return s;
}

sim::Task<void> FtOcBcast::write_staged_reliable(scc::Core& self,
                                                 std::uint64_t parity,
                                                 std::uint64_t seq,
                                                 std::uint64_t sum) {
  const CacheLine want = encode_staged(seq, sum);
  const std::size_t line = layout_.staged_line(parity);
  co_await self.busy(self.chip().config().o_put_mpb);
  sim::Duration backoff = kWatchdog.write_backoff;
  for (int attempt = 0;; ++attempt) {
    rma::note_flag_release(self, rma::MpbAddr{self.id(), line}, seq);
    co_await self.mpb_write_line(self.id(), line, want);
    CacheLine back;
    co_await self.mpb_read_line(self.id(), line, back);
    const bool ok = back == want;
    if (ok) co_return;
    // Best effort beyond the retry budget: getters verify checksums and
    // have their own watchdogs, so a mis-staged line cannot corrupt them.
    if (attempt >= kWatchdog.write_retries) co_return;
    co_await self.busy(backoff);
    backoff *= 2;
  }
}

sim::Task<void> FtOcBcast::wait_children_done(scc::Core& self,
                                              const KaryTree& tree,
                                              const std::vector<CoreId>& children,
                                              std::uint64_t minimum) {
  const CoreId me = self.id();
  DeliveryReport& rep = reports_[static_cast<std::size_t>(me)];
  auto& dead = presumed_dead_[static_cast<std::size_t>(me)];
  for (std::size_t j = 0; j < children.size(); ++j) {
    const CoreId cj = children[j];
    if (!dead[static_cast<std::size_t>(cj)]) {
      const rma::MpbAddr flag{me, layout_.done_line(static_cast<int>(j))};
      int probes = 0;
      for (;;) {
        const std::optional<rma::FlagValue> v =
            co_await rma::wait_checked_flag_at_least_watchdog(
                self, flag, minimum, kWatchdog.timeout);
        if (v.has_value()) break;
        ++rep.watchdog_timeouts;
        ++probes;
        if (probes >= kProbeAttempts) {
          dead[static_cast<std::size_t>(cj)] = true;
          break;
        }
      }
    }
    if (!dead[static_cast<std::size_t>(cj)]) continue;
    // Frontier substitution: cj acked s only after staging s, so its
    // grandchildren's done lines — which live in cj's still-readable MPB —
    // reaching `minimum` proves everything below (and including) cj
    // consumed the buffer this wait protects.
    const std::vector<CoreId> grandchildren = tree.children_of(cj);
    for (std::size_t g = 0; g < grandchildren.size(); ++g) {
      const CoreId gc = grandchildren[g];
      if (dead[static_cast<std::size_t>(gc)]) continue;
      const rma::MpbAddr flag{cj, layout_.done_line(static_cast<int>(g))};
      int probes = 0;
      for (;;) {
        const std::optional<rma::FlagValue> v =
            co_await rma::wait_checked_flag_at_least_watchdog(
                self, flag, minimum, kWatchdog.timeout);
        if (v.has_value()) break;
        ++rep.watchdog_timeouts;
        ++probes;
        if (probes >= kProbeAttempts) {
          // Out of the single-failure model; don't wedge the survivors.
          dead[static_cast<std::size_t>(gc)] = true;
          break;
        }
      }
    }
    ++rep.substituted_acks;
  }
}

sim::Task<void> FtOcBcast::root_chunk(scc::Core& self, const KaryTree& tree,
                                      const std::vector<CoreId>& children,
                                      const std::vector<CoreId>& own,
                                      std::uint64_t seq, std::uint64_t parity,
                                      std::size_t lines, std::size_t mem_off,
                                      std::uint64_t reuse_min) {
  co_await wait_children_done(self, tree, children, reuse_min);
  // End-to-end integrity starts here: the checksum the tree verifies
  // against must describe the *message*, not whatever the root's memory
  // reads happened to return. The application-known message checksum is
  // free (host-side) — a staging pass whose folded sum disagrees read a
  // corrupted line on the way up, and is redone from memory.
  DeliveryReport& rep = reports_[static_cast<std::size_t>(self.id())];
  const std::uint64_t expected =
      rma::host_checksum_mem(self.chip(), self.id(), mem_off, lines);
  std::uint64_t sum = 0;
  int tries = 0;
  for (;;) {
    co_await rma::put_mem_to_mpb(
        self, rma::MpbAddr{self.id(), layout_.buffer_line(parity)}, mem_off,
        lines, &sum);
    if (sum == expected) break;
    ++rep.checksum_retries;
    ++tries;
    // Best effort past the budget: `sum` still matches what actually sits
    // in the staging buffer, so the tree at least converges consistently.
    if (tries > kGetRetries) break;
  }
  co_await write_staged_reliable(self, parity, seq, sum);
  for (CoreId target : own) {
    co_await rma::set_flag_reliable(
        self, rma::MpbAddr{target, layout_.notify_line()}, seq, kWatchdog,
        [seq](rma::FlagValue v) { return v >= seq; });
  }
}

sim::Task<bool> FtOcBcast::follower_chunk(
    scc::Core& self, const KaryTree& tree, const std::vector<CoreId>& children,
    const std::vector<CoreId>& forward, const std::vector<CoreId>& own,
    bool& use_notify, std::uint64_t seq, std::uint64_t parity, std::size_t lines,
    std::size_t mem_off, std::uint64_t reuse_min) {
  const CoreId me = self.id();
  DeliveryReport& rep = reports_[static_cast<std::size_t>(me)];
  auto& dead = presumed_dead_[static_cast<std::size_t>(me)];
  const CoreId parent = tree.parent_of(me);
  const int my_slot = tree.child_position(me) - 1;
  const bool is_leaf = children.empty();
  const std::size_t staged = layout_.staged_line(parity);
  const std::size_t buffer = layout_.buffer_line(parity);

  // Current data source: static parent, walked toward the root past any
  // peer this core has already presumed dead.
  CoreId source = parent;
  while (source != tree.root() && dead[static_cast<std::size_t>(source)]) {
    source = tree.parent_of(source);
  }

  // Fast-path wake-up hint. Ignored once it ever times out (lost/stuck
  // notification or crashed notifier): the staged line is the ground truth.
  if (use_notify) {
    const std::optional<rma::FlagValue> hint =
        co_await rma::wait_flag_at_least_watchdog(
            self, rma::MpbAddr{me, layout_.notify_line()}, seq,
            kWatchdog.timeout);
    if (!hint.has_value()) {
      ++rep.watchdog_timeouts;
      use_notify = false;
    }
  }
  // Keep the notification tree flowing regardless (hint-only for receivers).
  for (CoreId target : forward) {
    co_await rma::set_flag(self, rma::MpbAddr{target, layout_.notify_line()},
                           seq);
  }

  int attempts = 0;
  for (;;) {
    if (attempts >= kMaxChunkAttempts) {
      rep.gave_up = true;
      co_return false;
    }
    // --- Detect: poll the source's staged line for this parity ----------
    Staged st;
    {
      rma::note_flag_wait(self, rma::MpbAddr{source, staged});
      int probes = 0;
      bool detected = false;
      while (!detected) {
        std::uint64_t epoch = 0;
        CacheLine sl;
        co_await self.mpb_read_line(source, staged, sl, &epoch);
        st = decode_staged(sl);
        if (st.valid && st.seq >= seq) {
          rma::note_flag_acquire(self, rma::MpbAddr{source, staged}, st.seq);
          detected = true;
          break;
        }
        self.set_wait_note("staged-wait", source, static_cast<int>(staged));
        // Trigger reference taken after the read (see rma::wait_flag).
        sim::Trigger& trig = self.chip().mpb(source).line_trigger(staged);
        const bool woken =
            co_await trig.wait_for(kWatchdog.timeout, epoch);
        self.set_wait_note("running");
        if (woken) continue;
        ++rep.watchdog_timeouts;
        ++probes;
        if (probes >= kProbeAttempts) break;
      }
      if (!detected) {
        // Source stopped advancing: presume it dead and re-route one level
        // up. Its frozen MPB still serves every chunk it acked, so the walk
        // never skips data (ack-after-stage invariant).
        if (source == tree.root()) {
          // The root has no substitute, but it also merely stalls whenever
          // it probes a dead child of its own — so keep retrying (bounded
          // by max_chunk_attempts). A genuinely dead root is out of model
          // and surfaces as gave_up when the attempt budget drains.
          ++attempts;
          continue;
        }
        dead[static_cast<std::size_t>(source)] = true;
        ++rep.reroutes;
        source = tree.parent_of(source);
        while (source != tree.root() && dead[static_cast<std::size_t>(source)]) {
          source = tree.parent_of(source);
        }
        ++attempts;
        continue;
      }
    }
    if (st.seq > seq) {
      // The source recycled this buffer past our chunk — we fell behind its
      // pipeline beyond the double-buffer window (only possible outside the
      // single-failure model, e.g. we were falsely presumed dead). The data
      // is gone upstream everywhere; give up without wedging anyone.
      rep.gave_up = true;
      co_return false;
    }

    // --- Fetch + verify -------------------------------------------------
    // A re-routed fetch (source walked past a presumed-dead peer) has no
    // ack path into the substitute source's buffer-reuse gate: the read
    // legitimately races the source recycling the slot, and safety comes
    // from the checksum (mismatch => retry; seq advanced => fall-behind).
    // Declare it a validated-read section so the race checker holds it to
    // that protocol instead of the happens-before rule.
    const bool rerouted = source != parent;
    if (is_leaf) {
      if (rerouted) rma::note_optimistic_begin(self);
      std::uint64_t got = 0;
      co_await rma::get_mpb_to_mem(self, mem_off, rma::MpbAddr{source, buffer},
                                   lines, &got);
      if (rerouted) rma::note_optimistic_end(self);
      // Leaves land straight in private memory (§5.4): half the line
      // transactions, and the checksum covers the whole observed path.
      if (got != st.sum) {
        ++rep.checksum_retries;
        ++attempts;
        continue;
      }
    } else {
      co_await wait_children_done(self, tree, children, reuse_min);
      if (rerouted) rma::note_optimistic_begin(self);
      std::uint64_t got = 0;
      co_await rma::get_mpb_to_mpb(self, buffer, rma::MpbAddr{source, buffer},
                                   lines, &got);
      if (rerouted) rma::note_optimistic_end(self);
      if (got != st.sum) {
        ++rep.checksum_retries;
        ++attempts;
        continue;
      }
      // Republish before acking: the ack-after-stage invariant is what
      // makes this core's MPB a valid fallback source if it dies next.
      co_await write_staged_reliable(self, parity, seq, got);
    }

    // --- Ack (into the static parent's MPB, alive or not) ---------------
    co_await rma::set_checked_flag_reliable(
        self, rma::MpbAddr{parent, layout_.done_line(my_slot)}, seq, kWatchdog);

    if (!is_leaf) {
      for (CoreId target : own) {
        co_await rma::set_flag_reliable(
            self, rma::MpbAddr{target, layout_.notify_line()}, seq, kWatchdog,
            [seq](rma::FlagValue v) { return v >= seq; });
      }
      // Land the chunk from the own buffer, verified against the checksum
      // established at fetch time (read corruption on the way to memory is
      // caught and retried from the intact buffer).
      int tries = 0;
      for (;;) {
        std::uint64_t landed = 0;
        co_await rma::get_mpb_to_mem(self, mem_off, rma::MpbAddr{me, buffer},
                                     lines, &landed);
        if (landed == st.sum) break;
        ++rep.checksum_retries;
        ++tries;
        if (tries > kGetRetries) {
          rep.gave_up = true;
          co_return false;
        }
      }
    }
    co_return true;
  }
}

sim::Task<void> FtOcBcast::run(scc::Core& self, CoreId root, std::size_t offset,
                               std::size_t bytes) {
  OCB_REQUIRE(self.id() < params_.parties, "core is not a participant");
  OCB_REQUIRE(root >= 0 && root < params_.parties, "root is not a participant");
  OCB_REQUIRE(bytes > 0, "empty broadcast");

  const KaryTree tree(params_.parties, params_.k, root);
  const CoreId me = self.id();
  const std::vector<CoreId> children = tree.children_of(me);
  const std::vector<CoreId> forward = tree.notify_forward_targets(me);
  const std::vector<CoreId> own = tree.notify_own_targets(me);

  const std::size_t m_lines = cache_lines_for(bytes);
  const std::size_t chunk = params_.chunk_lines;
  const std::size_t n_chunks = (m_lines + chunk - 1) / chunk;
  const std::uint64_t base = calls_.claim(me, n_chunks);

  DeliveryReport& rep = reports_[static_cast<std::size_t>(me)];
  rep.participated = true;

  // The family's root-change fence (core/pipeline.h). The fence itself is
  // not fault-tolerant; root rotation requires a fault-free interlude, see
  // docs/PROTOCOLS.md.
  if (calls_.root_changed(me, root)) co_await calls_.fence(self);

  bool use_notify = me != root;
  const std::size_t buffers = layout_.buffers;

  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::uint64_t seq = base + c + 1;
    const std::uint64_t parity = (base + c) % buffers;
    const std::size_t lines =
        c + 1 < n_chunks ? chunk : m_lines - (n_chunks - 1) * chunk;
    const std::size_t mem_off = offset + c * chunk * kCacheLineBytes;
    const std::uint64_t reuse_min = c >= buffers ? seq - buffers : 0;

    if (me == root) {
      self.set_stage("ft-oc-bcast:root");
      co_await root_chunk(self, tree, children, own, seq, parity, lines,
                          mem_off, reuse_min);
      continue;
    }
    self.set_stage("ft-oc-bcast:follower");
    const bool ok = co_await follower_chunk(self, tree, children, forward, own,
                                            use_notify, seq, parity, lines,
                                            mem_off, reuse_min);
    if (!ok) co_return;
  }

  self.set_stage("ft-oc-bcast:drain");
  co_await wait_children_done(self, tree, children, base + n_chunks);
  rep.delivered = true;
}

}  // namespace ocb::core
