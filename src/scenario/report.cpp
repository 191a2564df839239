#include "src/scenario/report.h"

#include <cstdio>
#include <fstream>

#include "src/noc/simulator.h"
#include "src/obs/build_info.h"
#include "src/util/stats.h"

namespace floretsim::scenario {

void JsonReport::add_table(const std::string& key, const util::TextTable& table) {
    tables_.push_back(Table{key, table.header(), table.data()});
}

void JsonReport::add_metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
}

void JsonReport::set_run_info(const std::string& key, util::Json value) {
    for (auto& [k, v] : run_info_)
        if (k == key) {
            v = std::move(value);
            return;
        }
    run_info_.emplace_back(key, std::move(value));
}

util::Json JsonReport::to_value() const {
    util::Json doc = util::Json::object();
    doc.set("bench", name_);
    // The active simulator core: SimConfig's default after the
    // FLORETSIM_SIM_CORE override (also how the --core CLI flags apply), so
    // every report records which engine earned its numbers. Specs do not
    // carry a core, so this is the core every simulation of the run used.
    doc.set("sim_core",
            std::string(noc::sim_core_name(
                noc::resolved_sim_core(noc::SimConfig{}.core))));
    // Provenance: enough to reproduce (or distrust) the numbers — what
    // binary, which source revision, which simulator core — plus any
    // run-specific facts layered on via set_run_info.
    util::Json run_info = obs::build_info_json();
    run_info.set("sim_core",
                 std::string(noc::sim_core_name(
                     noc::resolved_sim_core(noc::SimConfig{}.core))));
    for (const auto& [key, value] : run_info_) run_info.set(key, value);
    doc.set("run_info", std::move(run_info));
    util::Json metrics = util::Json::object();
    // Non-finite doubles serialize as null (see util::json_serialize).
    for (const auto& [key, value] : metrics_) metrics.set(key, value);
    doc.set("metrics", std::move(metrics));
    util::Json tables = util::Json::object();
    for (const auto& tab : tables_) {
        util::Json t = util::Json::object();
        util::Json columns = util::Json::array();
        for (const auto& c : tab.header) columns.push_back(c);
        t.set("columns", std::move(columns));
        util::Json rows = util::Json::array();
        for (const auto& row : tab.rows) {
            util::Json cells = util::Json::array();
            for (const auto& cell : row) cells.push_back(cell);
            rows.push_back(std::move(cells));
        }
        t.set("rows", std::move(rows));
        tables.set(tab.key, std::move(t));
    }
    doc.set("tables", std::move(tables));
    return doc;
}

std::string JsonReport::to_json() const { return util::json_serialize(to_value()); }

bool JsonReport::write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "warning: cannot write JSON report to %s\n",
                     path.c_str());
        return false;
    }
    f << to_json();
    return static_cast<bool>(f);
}

void add_point_timing(JsonReport& report, const core::SweepResult& sweep) {
    std::vector<double> seconds;
    seconds.reserve(sweep.rows.size());
    for (const auto& row : sweep.rows) seconds.push_back(row.seconds);
    add_point_timing(report, seconds);
}

void add_point_timing(JsonReport& report, std::span<const double> point_seconds) {
    util::RunningStats t;
    for (const double s : point_seconds) t.add(s);
    if (t.empty()) return;
    report.add_metric("point_seconds_min", t.min());
    report.add_metric("point_seconds_mean", t.mean());
    report.add_metric("point_seconds_max", t.max());
    report.add_metric("point_imbalance",
                      t.mean() > 0.0 ? t.max() / t.mean() : 1.0);
}

}  // namespace floretsim::scenario
