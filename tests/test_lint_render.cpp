// Renderer shape tests: the SARIF output must be structurally valid 2.1.0
// (schema/version/runs/tool.driver.rules/results), JSONL must be one object
// per line, and the human format must carry rule ids and witnesses.  The
// dependency-free JSON reader lives in test_helpers.hpp, shared with the
// sweep-engine golden tests.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/lint/render.hpp"

namespace wormnet {
namespace {

std::vector<lint::LintUnit> lint_ring_units(
    std::shared_ptr<topology::Topology>& topo_out) {
  topo_out =
      std::make_shared<topology::Topology>(core::make_topology("ring:8"));
  const auto routing = core::make_algorithm("unrestricted", *topo_out);
  lint::LintUnit unit;
  unit.subject = "ring:8 unrestricted";
  unit.topo = topo_out.get();
  unit.result = lint::run_lint(*topo_out, *routing);
  std::vector<lint::LintUnit> units;
  units.push_back(std::move(unit));
  return units;
}

// ------------------------------------------------------------------ SARIF

TEST(LintRender, SarifShape) {
  std::shared_ptr<topology::Topology> topo;
  const auto units = lint_ring_units(topo);
  std::ostringstream os;
  lint::render_sarif(os, units);

  const audit::json::Value root = audit::json::parse(os.str());
  ASSERT_TRUE(root.has("$schema"));
  ASSERT_TRUE(root.has("version"));
  EXPECT_EQ(root.at("version").as_string(), "2.1.0");

  const auto& runs = root.at("runs").as_array();
  ASSERT_EQ(runs.size(), 1u);
  const audit::json::Value& run = runs[0];

  const audit::json::Value& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "wormnet-lint");
  const auto& rules = driver.at("rules").as_array();
  EXPECT_EQ(rules.size(), lint::all_rules().size());
  for (const auto& r : rules) {
    EXPECT_TRUE(r.has("id"));
    EXPECT_TRUE(r.has("shortDescription"));
    EXPECT_TRUE(r.has("defaultConfiguration"));
  }

  const auto& results = run.at("results").as_array();
  ASSERT_FALSE(results.empty());
  bool saw_wn002 = false;
  for (const auto& r : results) {
    ASSERT_TRUE(r.has("ruleId"));
    ASSERT_TRUE(r.has("level"));
    ASSERT_TRUE(r.has("message"));
    EXPECT_TRUE(r.at("message").has("text"));
    const auto& locations = r.at("locations").as_array();
    ASSERT_FALSE(locations.empty());
    const auto& logical = locations[0].at("logicalLocations").as_array();
    EXPECT_EQ(logical[0].at("name").as_string(), "ring:8 unrestricted");
    if (r.at("ruleId").as_string() == "WN002") {
      saw_wn002 = true;
      EXPECT_EQ(r.at("level").as_string(), "error");
      // The concrete dependency-cycle witness rides in properties.cycle.
      EXPECT_EQ(r.at("properties").at("cycle").as_array().size(), 8u);
    }
  }
  EXPECT_TRUE(saw_wn002);
}

// ------------------------------------------------------------------ JSONL

TEST(LintRender, JsonlOneValidObjectPerDiagnostic) {
  std::shared_ptr<topology::Topology> topo;
  const auto units = lint_ring_units(topo);
  std::ostringstream os;
  lint::render_jsonl(os, units);

  std::istringstream lines(os.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const audit::json::Value obj = audit::json::parse(line);
    EXPECT_TRUE(obj.has("subject"));
    EXPECT_TRUE(obj.has("rule"));
    EXPECT_TRUE(obj.has("severity"));
    EXPECT_TRUE(obj.has("message"));
    ++count;
  }
  EXPECT_EQ(count, units[0].result.diagnostics.size());
}

// ------------------------------------------------------------------ human

TEST(LintRender, HumanNamesRuleAndWitness) {
  std::shared_ptr<topology::Topology> topo;
  const auto units = lint_ring_units(topo);
  std::ostringstream os;
  lint::render_human(os, units);
  const std::string text = os.str();
  EXPECT_NE(text.find("[WN002 extended-cdg-cyclic]"), std::string::npos);
  EXPECT_NE(text.find("note: witness:"), std::string::npos);
  EXPECT_NE(text.find("error(s)"), std::string::npos);
}

TEST(LintRender, HumanCleanSummary) {
  auto topo = std::make_shared<topology::Topology>(
      core::make_topology("mesh:4x4:2"));
  const auto routing = core::make_algorithm("duato-mesh", *topo);
  lint::LintUnit unit;
  unit.subject = "mesh:4x4:2 duato-mesh";
  unit.topo = topo.get();
  unit.result = lint::run_lint(*topo, *routing);
  std::ostringstream os;
  lint::render_human(os, {std::move(unit)});
  EXPECT_NE(os.str().find("clean"), std::string::npos);
}

}  // namespace
}  // namespace wormnet
