// Umbrella header for the observability layer. Instrumented code follows
// one pattern:
//
//   if (obs_ != nullptr) obs_->on_commit(result);   // cached handles
//
// i.e. a single null check around atomics on cached pointers -- no
// strings, no locks, no registry lookups on the packet path. The pointer
// is null until the engine is attached to a registry, so a detached
// engine pays the check and nothing else. docs/OBSERVABILITY.md measures
// the cost of each layer.
#ifndef SDMMON_SRC_OBS_OBS_HPP
#define SDMMON_SRC_OBS_OBS_HPP

#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

#endif  // SDMMON_SRC_OBS_OBS_HPP
