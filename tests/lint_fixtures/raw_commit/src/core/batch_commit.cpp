// The one place the commit protocol's durable calls may be made.
void BatchCommit::commit(std::uint64_t seq) {
  info_ = durability_.recover();
  durability_.commit_batch(seq, next);
}
