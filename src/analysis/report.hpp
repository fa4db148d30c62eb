// Campaign report: one call assembling every analysis artefact of the
// paper's evaluation into a single human-readable document — §5.1's
// summary, Tables 1/2, the Fig. 5/6 selections, Fig. 9's sweep, the
// three case studies, imbalance and anomaly sections.
//
// This is the "operator view" a production deployment of the matching
// framework would publish per observation window.
#pragma once

#include <iosfwd>

#include "analysis/casestudy.hpp"
#include "analysis/summary.hpp"
#include "core/anomaly.hpp"

namespace pandarus::analysis {

/// Writes the full report to `os`.  The store must outlive the call; the
/// topology provides site names.
void write_campaign_report(std::ostream& os,
                           const telemetry::MetadataStore& store,
                           const grid::Topology& topology,
                           const core::TriMatchResult& tri);

}  // namespace pandarus::analysis
