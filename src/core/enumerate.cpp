#include "core/enumerate.hpp"

#include <algorithm>

namespace gcsm {

CandidateMemo::CandidateMemo(detail::MemoCapacity capacity)
    : capacity_(capacity) {}

void CandidateMemo::begin_scope() {
  arena_used_ = 0;
  if (++scope_ == 0) {
    // 2^32 scopes later: forget every slot explicitly once.
    for (Slot& s : slots_) s.scope = 0;
    scope_ = 1;
  }
}

std::size_t CandidateMemo::slot_of(std::uint32_t level,
                                   std::span<const VertexId> key) const {
  std::uint64_t h = 0x9E3779B97F4A7C15ull * (level + 1);
  for (const VertexId v : key) {
    h = (h ^ static_cast<std::uint32_t>(v)) * 0xBF58476D1CE4E5B9ull;
  }
  return static_cast<std::size_t>(h ^ (h >> 31)) & (capacity_.slots - 1);
}

const CandidateMemo::Entry* CandidateMemo::find(
    std::uint32_t level, std::span<const VertexId> key) const {
  if (slots_.empty()) return nullptr;
  const Slot& s = slots_[slot_of(level, key)];
  if (s.scope != scope_ || s.level != level ||
      !std::equal(key.begin(), key.end(), s.key.begin())) {
    return nullptr;
  }
  return &s.entry;
}

void CandidateMemo::store(std::uint32_t level, std::span<const VertexId> key,
                          std::span<const VertexId> set, std::uint32_t pulled,
                          std::uint64_t ops) {
  // A zero-capacity arena stores nothing, empty sets included.
  if (capacity_.arena_ids == 0 ||
      set.size() > capacity_.arena_ids - arena_used_) {
    return;
  }
  if (slots_.empty()) {
    slots_.resize(capacity_.slots);
    arena_ = std::make_unique_for_overwrite<VertexId[]>(capacity_.arena_ids);
  }
  VertexId* copy = arena_.get() + arena_used_;
  std::copy(set.begin(), set.end(), copy);
  arena_used_ += set.size();
  Slot& s = slots_[slot_of(level, key)];
  s.scope = scope_;
  s.level = level;
  s.entry = {copy, static_cast<std::uint32_t>(set.size()), pulled, ops};
  std::copy(key.begin(), key.end(), s.key.begin());
}

namespace {

// Points scratch.level_set[level] at the level's label-filtered candidates
// and charges what computing them costs. With `memoize`, a set stored for
// the same constraint vertices in this scope is reused: its fetches are
// re-issued in order and its ops charged again, so the charges are exactly
// those of recomputing it. Returns false if the set is empty.
bool compute_level(const EnumerationEnv& env, const MatchPlan& plan,
                   std::uint32_t level, const Bindings& bound, bool memoize,
                   EnumerationScratch& scratch) {
  const PlanLevel& pl = plan.levels[level];
  const std::size_t num_views = pl.constraints.size();
  std::array<VertexId, kMaxQueryVertices - 1> key_ids{};
  const std::span<const VertexId> key(key_ids.data(), num_views);
  if (memoize) {
    for (std::size_t i = 0; i < num_views; ++i) {
      key_ids[i] = bound[pl.constraints[i].order_pos];
    }
    if (const CandidateMemo::Entry* hit = scratch.memo.find(level, key)) {
      for (std::uint32_t i = 0; i < hit->pulled; ++i) {
        env.policy.fetch(key_ids[i], pl.constraints[i].view, scratch.traffic);
      }
      scratch.ops += hit->ops;
      scratch.level_set[level] = {hit->data, hit->size};
      return hit->size != 0;
    }
  }

  std::vector<VertexId>& out = scratch.cand[level];
  std::uint32_t pulled = 0;
  const std::uint64_t ops = compute_candidates(
      num_views,
      [&](std::size_t i) {
        ++pulled;
        const BackwardConstraint& c = pl.constraints[i];
        return env.policy.fetch(bound[c.order_pos], c.view, scratch.traffic);
      },
      out, scratch.kernel);
  scratch.ops += ops;
  if (env.query.label(pl.query_vertex) != kWildcardLabel) {
    std::erase_if(out, [&](VertexId v) {
      return !env.query.label_matches(pl.query_vertex, env.labels.label(v));
    });
  }
  if (memoize) scratch.memo.store(level, key, out, pulled, ops);
  scratch.level_set[level] = out;
  return !out.empty();
}

}  // namespace

void enumerate(const EnumerationEnv& env, const MatchPlan& plan,
               std::uint32_t entry, const Bindings& seed_bound, int sign,
               EnumerationScratch& scratch) {
  const std::uint32_t num_levels = plan.num_levels();
  Bindings bound = seed_bound;

  auto emit = [&](std::uint32_t depth) {
    scratch.stats.signed_embeddings += sign;
    if (sign > 0) {
      ++scratch.stats.positive;
    } else {
      ++scratch.stats.negative;
    }
    env.sink.emit(plan, std::span<const VertexId>(bound.data(), depth),
                  sign);
  };

  if (num_levels == 0) {
    emit(2);
    return;
  }
  if (env.hook != nullptr && env.hook->divert(entry, bound)) return;

  // The entry level's constraint vertices are fixed for the whole call, so
  // it is computed once and never memoized.
  scratch.memo.begin_scope();
  if (!compute_level(env, plan, entry, bound, false, scratch)) return;
  scratch.cursor[entry] = 0;

  const auto base = static_cast<std::int32_t>(entry);
  std::int32_t level = base;
  while (level >= base) {
    const std::span<const VertexId> cand = scratch.level_set[level];
    std::uint32_t& cur = scratch.cursor[level];
    if (cur >= cand.size()) {
      --level;
      continue;
    }
    const VertexId v = cand[cur++];

    // Injectivity and the optional index filter at bind time (labels were
    // filtered when the set was built).
    const std::uint32_t bound_count = 2 + static_cast<std::uint32_t>(level);
    if (std::find(bound.begin(), bound.begin() + bound_count, v) !=
        bound.begin() + bound_count) {
      continue;
    }
    if (env.filter != nullptr &&
        !env.filter->admits(plan.levels[level].query_vertex, v)) {
      continue;
    }

    bound[bound_count] = v;
    const std::uint32_t next = static_cast<std::uint32_t>(level) + 1;
    if (next == num_levels) {
      emit(bound_count + 1);
      continue;
    }
    if (env.hook != nullptr && env.hook->divert(next, bound)) continue;
    if (!compute_level(env, plan, next, bound, true, scratch)) continue;
    level = static_cast<std::int32_t>(next);
    scratch.cursor[level] = 0;
  }
}

}  // namespace gcsm
