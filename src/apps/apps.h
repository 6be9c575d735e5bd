// The real-world application suite of Table 2: fourteen streaming
// applications with genuine operator logic (tokenizers, anomaly scoring,
// sentiment lexicons, spike detection, per-account fraud models, ...) and
// domain-faithful synthetic data generators. Each application materializes
// as a LogicalPlan parameterized by event rate and parallelism, ready to run
// on the simulated cluster.

#ifndef PDSP_APPS_APPS_H_
#define PDSP_APPS_APPS_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/query/plan.h"

namespace pdsp {

/// The fourteen applications (Table 2).
enum class AppId {
  kWordCount = 0,      ///< WC  — text analytics
  kMachineOutlier,     ///< MO  — datacenter monitoring
  kLinearRoad,         ///< LR  — road tolling
  kSentimentAnalysis,  ///< SA  — social media
  kSmartGrid,          ///< SG  — DEBS'14 smart plugs
  kSpikeDetection,     ///< SD  — IoT sensor spikes
  kAdAnalytics,        ///< AD  — impressions x clicks
  kClickAnalytics,     ///< CA  — clickstream dedup + stats
  kTrafficMonitoring,  ///< TM  — GPS map matching
  kLogProcessing,      ///< LP  — web server logs
  kTrendingTopics,     ///< TT  — hashtag trends
  kFraudDetection,     ///< FD  — transaction Markov model
  kBargainIndex,       ///< BI  — stock quotes vs VWAP
  kTpcH,               ///< TPCH — streaming pricing summary (Q1-like)
};

constexpr int kNumApps = 14;

/// \brief Suite metadata (one Table 2 row).
struct AppInfo {
  AppId id;
  const char* abbrev;
  const char* name;
  const char* area;
  const char* description;
  /// Embeds user-defined operators (O3: UDO apps scale unpredictably).
  bool uses_udo;
  /// Data-intensive per the paper's Figure 3/4 grouping (SA, SG, SD, ...).
  bool data_intensive;
};

/// All fourteen applications in AppId order.
const std::vector<AppInfo>& AllApps();

/// Metadata for one application.
const AppInfo& GetAppInfo(AppId id);

/// Looks an application up by its abbreviation ("WC", "SG", ...).
Result<AppId> FindAppByAbbrev(const std::string& abbrev);

/// \brief Parameters shared by all application factories.
struct AppOptions {
  double event_rate = 100000.0;  ///< tuples/s at each source
  int parallelism = 1;           ///< degree for every operator except sink
  uint64_t seed = 7;
  /// Scales all window spans (1.0 = the app's defaults).
  double window_scale = 1.0;
};

/// Builds the validated plan for an application. Registers the suite's UDO
/// kinds on first use.
Result<LogicalPlan> MakeApp(AppId id, const AppOptions& options);

/// Registers every application UDO kind in UdoRegistry::Global().
/// Idempotent; called automatically by MakeApp.
void RegisterAppUdos();

/// Synthetic sentiment lexicon shared by the SA app and its tests: the
/// polarity of a dictionary word (+1 positive, -1 negative, 0 neutral).
int WordPolarity(std::string_view word);

}  // namespace pdsp

#endif  // PDSP_APPS_APPS_H_
