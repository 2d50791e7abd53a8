// A second backoff schedule outside the recovery ladder.
struct RecoveryOptions {
  double backoff_initial_ms = 1.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 50.0;
};

double next_backoff(const RecoveryOptions& rec, double ms) {
  return ms * rec.backoff_multiplier;
}
