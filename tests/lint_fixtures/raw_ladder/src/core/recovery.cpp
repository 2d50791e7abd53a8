// The one place the ladder knobs may be read.
struct RecoveryOptions;

int cpu_attempts(const RecoveryOptions& rec) { return rec.max_cpu_attempts; }
