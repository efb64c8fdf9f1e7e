// Certificate emission: turning checker results into audit::Certificates.
//
// Emission is NOT part of the trusted base — it leans on the cdg/ and cwg/
// machinery freely, because a wrong certificate is caught by audit::check()
// rather than trusted.  The division of labor (DESIGN 3.10):
//
//   checker (cdg/, cwg/)  — searches for the witness structures;
//   certify (this file)   — flattens them into the plain-data schema;
//   audit::check          — re-validates them against the relation alone.
//
// Certificates are emitted for decisive verdicts that admit a compact
// witness: a Duato-certified subfunction, an exhaustive Duato refutation's
// dependency cycle, a deterministic relation's cyclic CDG, a realizable
// (True) wait cycle, and a wait-disconnected state.  "Deadlock-free by CWG
// reduction" and budget-limited kUnknown verdicts carry no certificate —
// their justification is a universal claim with no small witness.
#pragma once

#include <optional>
#include <string_view>

#include "wormnet/audit/certificate.hpp"
#include "wormnet/cdg/duato_checker.hpp"
#include "wormnet/cdg/states.hpp"
#include "wormnet/cwg/cwg_builder.hpp"
#include "wormnet/cwg/cycle_classify.hpp"

namespace wormnet::core {

/// Certificate for a Duato search outcome over `states`: a certified
/// certificate when the search found a qualifying subfunction, a refuted
/// one (dependency-cycle evidence) when the exhaustive search proved no
/// subfunction exists for an in-scope relation.  nullopt when the verdict
/// is not decisive.  The topology/relation labels default to the bound
/// names; callers holding registry specs overwrite them afterwards.
[[nodiscard]] std::optional<audit::Certificate> certify_duato(
    const cdg::StateGraph& states, const cdg::SearchResult& search);

/// Refuted certificate from a direct dependency cycle (channel sequence,
/// closing edge implied) — used for deterministic cyclic-CDG verdicts and
/// internally for Duato refutations.  nullopt if some edge cannot be
/// attributed to a destination (a checker bug worth surfacing as "no
/// certificate" rather than an unverifiable one).
[[nodiscard]] std::optional<audit::Certificate> certify_dependency_cycle(
    const cdg::StateGraph& states,
    const std::vector<topology::ChannelId>& cycle, std::string_view method);

/// Refuted certificate from a classified True Cycle: the wait cycle plus
/// the held-channel path of every participating message (the realization
/// the classifier found).  nullopt unless `cycle.kind == kTrue`.
[[nodiscard]] std::optional<audit::Certificate> certify_wait_cycle(
    const cdg::StateGraph& states, const cwg::ClassifiedCycle& cycle);

/// Refuted certificate from a failed wait-connectivity check.
[[nodiscard]] audit::Certificate certify_not_wait_connected(
    const cdg::StateGraph& states, const cwg::WaitConnectivity& wait);

}  // namespace wormnet::core
