// An engine writing its own commit protocol around the core.
void process(DurabilityManager& durability, BatchCommit& commit_,
             const EdgeBatch& batch) {
  commit_.recover({});
  const auto seq = durability.begin_batch(batch);
  commit_.durability().recover();
}
