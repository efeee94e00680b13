// Copyright 2026 The PLDP Authors.
//
// Mechanism factory: maps the names used throughout the benches and
// examples ("passthrough", "uniform", "adaptive", "bd", "ba", "landmark")
// to fresh mechanism instances with the given options.

#ifndef PLDP_PPM_FACTORY_H_
#define PLDP_PPM_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "ppm/adaptive.h"
#include "ppm/landmark.h"
#include "ppm/mechanism.h"
#include "ppm/pattern_level.h"
#include "ppm/w_event.h"

namespace pldp {

/// Options bundle covering every mechanism family.
struct MechanismFactoryOptions {
  AdaptivePpmOptions adaptive;
  WEventOptions w_event;
  LandmarkOptions landmark;
};

/// Creates a mechanism by name; NotFound for unknown names.
StatusOr<std::unique_ptr<PrivacyMechanism>> MakeMechanism(
    const std::string& name, const MechanismFactoryOptions& options = {});

/// The mechanism names in canonical report order.
std::vector<std::string> AllMechanismNames();

/// Wraps MakeMechanism(name, options) as a reusable factory — the form the
/// per-subject publisher (ppm/subject_publisher.h) and the private lane
/// consume.
MechanismFactory NamedMechanismFactory(const std::string& name,
                                       MechanismFactoryOptions options = {});

}  // namespace pldp

#endif  // PLDP_PPM_FACTORY_H_
