// User-defined operator implementations for the application suite. Each UDO
// performs the application's real computation on real tuples — the point of
// the suite is that UDO behaviour (state handling, custom logic) differs
// qualitatively from standard operators (paper O3).

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/string_util.h"
#include "src/runtime/udo.h"

namespace pdsp {

int WordPolarity(std::string_view word) {
  // Deterministic synthetic lexicon: a word's polarity derives from a stable
  // hash of its characters, giving ~20% positive, ~20% negative words.
  uint64_t h = 1469598103934665603ULL;
  for (char c : word) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  const auto bucket = h % 10;
  if (bucket < 2) return 1;
  if (bucket < 4) return -1;
  return 0;
}

namespace {

// ---------- text ----------

// (text) -> one (word, 1) per whitespace token.
class TokenizeWordsUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    const auto text = row.NumValues() > 0 ? row.Text(0) : std::nullopt;
    if (!text) return;
    SplitWhitespace(*text, &words_);
    for (const std::string_view word : words_) {
      ctx->Emit({Value(std::string(word)), Value(int64_t{1})});
    }
  }

 private:
  std::vector<std::string_view> words_;  // scratch, reused across rows
};

// (user, text) -> (shard, score, polarity). The shard key (user % 128)
// keeps the downstream sentiment aggregation parallelizable: keying on the
// three polarity classes alone would funnel the whole stream into at most
// three instances — a keyed-scaling wall no degree of parallelism can fix.
class SentimentScoreUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    const auto text = row.NumValues() > 1 ? row.Text(1) : std::nullopt;
    if (!text) return;
    double score = 0.0;
    SplitWhitespace(*text, &words_);
    for (const std::string_view word : words_) score += WordPolarity(word);
    const int64_t polarity = score > 0 ? 1 : (score < 0 ? -1 : 0);
    const double user = row.Numeric(0);
    const int64_t shard = user >= 0 ? static_cast<int64_t>(user) % 128 : 0;
    ctx->Emit({Value(shard), Value(score), Value(polarity)});
  }

 private:
  std::vector<std::string_view> words_;
};

// (logline) -> (status, bytes): "parses" the line deterministically.
class LogParseUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    const auto line = row.NumValues() > 0 ? row.Text(0) : std::nullopt;
    if (!line) return;
    SplitWhitespace(*line, &tokens_);
    if (tokens_.empty()) return;
    const uint64_t h = HashStringValue(tokens_[0]);
    static const int64_t kStatuses[] = {200, 200, 200, 200, 200, 200, 200,
                                        301, 404, 500};
    const int64_t status = kStatuses[h % 10];
    const double bytes = 200.0 + static_cast<double>(h % 4096);
    ctx->Emit({Value(status), Value(bytes)});
  }

 private:
  std::vector<std::string_view> tokens_;
};

// (text) -> (topic, 1) for "hashtag" words (deterministic 1-in-8 of vocab).
class TopicExtractUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    const auto text = row.NumValues() > 0 ? row.Text(0) : std::nullopt;
    if (!text) return;
    SplitWhitespace(*text, &words_);
    for (const std::string_view word : words_) {
      if (HashStringValue(word) % 8 != 0) continue;
      ctx->Emit({Value(std::string(word)), Value(int64_t{1})});
    }
  }

 private:
  std::vector<std::string_view> words_;
};

// (topic, count) window results -> re-emitted only while the topic ranks in
// the running top-k by count.
class TopicRankUdo : public Udo {
 public:
  explicit TopicRankUdo(size_t k) : k_(k) {}

  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 2) return;
    const double count = row.Numeric(1);
    counts_[row.value(0)] = count;
    // Keep the tracker bounded.
    if (counts_.size() > 4 * k_) {
      std::vector<std::pair<double, Value>> ranked;
      ranked.reserve(counts_.size());
      for (const auto& [topic, c] : counts_) ranked.emplace_back(c, topic);
      std::nth_element(
          ranked.begin(), ranked.begin() + static_cast<int64_t>(k_),
          ranked.end(), [](const auto& a, const auto& b) {
            return a.first > b.first;
          });
      std::map<Value, double> kept;
      for (size_t i = 0; i < k_ && i < ranked.size(); ++i) {
        kept[ranked[i].second] = ranked[i].first;
      }
      counts_ = std::move(kept);
    }
    // Emit while in the current top-k.
    size_t above = 0;
    for (const auto& [topic, c] : counts_) above += c > count;
    if (above < k_) ctx->Emit(row.ToTuple().values);
  }

 private:
  size_t k_;
  std::map<Value, double> counts_;
};

// ---------- IoT / monitoring ----------

// (machine, cpu, mem) -> (machine, anomaly score): per-machine z-scores.
class MachineOutlierUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 3) return;
    const Value machine = row.value(0);
    const double cpu = row.Numeric(1);
    const double mem = row.Numeric(2);
    Stats& s = stats_[machine];
    const double score = s.Score(cpu) + s.Score(mem);
    s.Add(cpu);
    s.Add(mem);
    ctx->Emit({machine, Value(score)});
  }

 private:
  struct Stats {
    int64_t n = 0;
    double mean = 0.0, m2 = 0.0;
    void Add(double x) {
      ++n;
      const double d = x - mean;
      mean += d / n;
      m2 += d * (x - mean);
    }
    double Score(double x) const {
      if (n < 8) return 0.0;
      const double sd = std::sqrt(m2 / n);
      return sd > 1e-9 ? std::abs(x - mean) / sd : 0.0;
    }
  };
  std::map<Value, Stats> stats_;
};

// (sensor, value) -> (sensor, value, moving avg) emitted only on spikes.
class SpikeDetectUdo : public Udo {
 public:
  SpikeDetectUdo(size_t window, double threshold)
      : window_(window), threshold_(threshold) {}

  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 2) return;
    const Value sensor = row.value(0);
    const double v = row.Numeric(1);
    auto& buf = history_[sensor];
    if (buf.size() >= window_) {
      double sum = 0.0;
      for (double x : buf) sum += x;
      const double avg = sum / static_cast<double>(buf.size());
      if (std::abs(v - avg) > threshold_ * std::max(1e-9, std::abs(avg))) {
        ctx->Emit({sensor, Value(v), Value(avg)});
      }
    }
    buf.push_back(v);
    if (buf.size() > window_) buf.pop_front();
  }

 private:
  size_t window_;
  double threshold_;
  std::map<Value, std::deque<double>> history_;
};

// (house, plug, load) -> (house, load, ratio) when load exceeds the house's
// EWMA baseline (DEBS'14 smart grid outlier detection).
class SmartGridOutlierUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 3) return;
    const Value house = row.value(0);
    const double load = row.Numeric(2);
    auto [it, inserted] = baseline_.try_emplace(house, load);
    double& avg = it->second;
    const double ratio = avg > 1e-9 ? load / avg : 1.0;
    avg = 0.98 * avg + 0.02 * load;
    if (!inserted && ratio > 1.5) ctx->Emit({house, Value(load), Value(ratio)});
  }

 private:
  std::map<Value, double> baseline_;
};

// (segment, avg speed) window results -> (segment, toll) for congested
// segments. Linear Road tolls a segment when its average speed falls below
// the segment's free-flow threshold; thresholds vary per segment (road
// geometry), derived deterministically from the segment id.
class LinearRoadTollUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 2) return;
    const Value segment = row.value(0);
    const double avg_speed = row.Numeric(1);
    const double threshold = 30.0 + static_cast<double>(segment.Hash() % 41);
    if (avg_speed >= threshold) return;
    const double deficit = threshold - avg_speed;
    const double toll = 2.0 * deficit * deficit / 100.0;
    ctx->Emit({segment, Value(toll)});
  }
};

// (vehicle, lat, lon, speed) -> (road, speed): grid-based map matching with
// a deliberate trig inner loop (the compute-heavy UDO of the suite).
class MapMatchUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 4) return;
    const double lat = row.Numeric(1);
    const double lon = row.Numeric(2);
    // Probe the 3x3 neighbourhood of grid cells for the nearest "road"
    // anchor (synthetic anchors at cell centres).
    const double cell = 0.01;
    const auto ci = static_cast<int64_t>(std::floor(lat / cell));
    const auto cj = static_cast<int64_t>(std::floor(lon / cell));
    double best = 1e300;
    int64_t road = 0;
    for (int64_t di = -1; di <= 1; ++di) {
      for (int64_t dj = -1; dj <= 1; ++dj) {
        const double alat = (static_cast<double>(ci + di) + 0.5) * cell;
        const double alon = (static_cast<double>(cj + dj) + 0.5) * cell;
        // Haversine-style distance (the real cost of map matching).
        const double dlat = (alat - lat) * M_PI / 180.0;
        const double dlon = (alon - lon) * M_PI / 180.0;
        const double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
                         std::cos(lat * M_PI / 180.0) *
                             std::cos(alat * M_PI / 180.0) *
                             std::sin(dlon / 2) * std::sin(dlon / 2);
        const double d = 2.0 * std::atan2(std::sqrt(a), std::sqrt(1 - a));
        if (d < best) {
          best = d;
          road = ((ci + di) * 73856093 + (cj + dj) * 19349663) % 10007;
          if (road < 0) road += 10007;
        }
      }
    }
    ctx->Emit({Value(road), row.value(3)});
  }
};

// ---------- finance / web ----------

// (account, amount, location) -> flagged (account, amount, prob) for
// low-probability location transitions (per-account Markov chain).
class FraudScoreUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 3) return;
    const Value account = row.value(0);
    const auto location = static_cast<int64_t>(row.Numeric(2));
    AccountState& s = accounts_[account];
    double prob = 1.0;
    if (s.total > 4) {
      const auto it = s.transitions.find({s.last_location, location});
      const double count =
          it == s.transitions.end() ? 0.0 : static_cast<double>(it->second);
      prob = (count + 1.0) / (static_cast<double>(s.total) + 8.0);
    }
    ++s.transitions[{s.last_location, location}];
    ++s.total;
    s.last_location = location;
    if (prob < 0.12) ctx->Emit({account, row.value(1), Value(prob)});
  }

 private:
  struct AccountState {
    int64_t last_location = -1;
    int64_t total = 0;
    std::map<std::pair<int64_t, int64_t>, int64_t> transitions;
  };
  std::map<Value, AccountState> accounts_;
};

// (symbol, price, volume) -> (symbol, price, bargain index) against the
// symbol's running VWAP.
class BargainIndexUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 3) return;
    const Value symbol = row.value(0);
    const double price = row.Numeric(1);
    const double volume = std::max(1.0, row.Numeric(2));
    Vwap& v = vwap_[symbol];
    v.pv += price * volume;
    v.vol += volume;
    const double vwap = v.pv / v.vol;
    const double index = vwap > 1e-9 ? (vwap - price) / vwap : 0.0;
    // Exponential decay keeps the VWAP responsive.
    v.pv *= 0.999;
    v.vol *= 0.999;
    ctx->Emit({symbol, Value(price), Value(index)});
  }

 private:
  struct Vwap {
    double pv = 0.0;
    double vol = 0.0;
  };
  std::map<Value, Vwap> vwap_;
};

// (user, url) -> (url, 1) once per (user, url) pair within the dedup
// horizon (bounded hash set, cleared when full).
class ClickDedupUdo : public Udo {
 public:
  explicit ClickDedupUdo(size_t capacity) : capacity_(capacity) {}

  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 2) return;
    const Value url = row.value(1);
    const uint64_t key =
        row.value(0).Hash() * 0x9e3779b97f4a7c15ULL ^ url.Hash();
    if (seen_.size() >= capacity_) seen_.clear();
    if (!seen_.insert(key).second) return;
    ctx->Emit({url, Value(int64_t{1})});
  }

 private:
  size_t capacity_;
  std::unordered_set<uint64_t> seen_;
};

// Joined (l_ad..., r_ad...) impression x click rows -> (campaign, ctr-ish
// weight): the AD app's custom sliding aggregation logic.
class AdCtrUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 3) return;
    // l_ad = field 0, l_campaign = field 1; click weight decays with the
    // click/impression time gap captured by position in the join window.
    const Value campaign = row.value(1);
    Window& w = per_campaign_[campaign];
    ++w.pairs;
    const double weight = 1.0 / (1.0 + 0.1 * static_cast<double>(w.pairs % 64));
    ctx->Emit({campaign, Value(weight)});
  }

 private:
  struct Window {
    int64_t pairs = 0;
  };
  std::map<Value, Window> per_campaign_;
};

// (returnflag, quantity, extendedprice, discount, shipdays) ->
// (returnflag, disc_price): TPC-H Q1's derived column.
class TpchDiscPriceUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() < 4) return;
    const double price = row.Numeric(2);
    const double discount = row.Numeric(3);
    ctx->Emit({row.value(0), Value(price * (1.0 - discount))});
  }
};

}  // namespace

void RegisterAppUdos() {
  static const bool registered = [] {
    UdoRegistry& r = UdoRegistry::Global();
    // Determinism traits: "pure" UDOs are stateless element-wise functions
    // (any arrival order yields the same output multiset); "ordered" UDOs
    // keep running state (counters, baselines, dedup sets) whose outputs
    // depend on the order same-instance elements arrive in.
    const UdoTraits pure{/*pure=*/true, /*rng=*/false,
                         /*order_sensitive=*/false};
    const UdoTraits ordered{/*pure=*/false, /*rng=*/false,
                            /*order_sensitive=*/true};
    r.Register("tokenize_words", [](const OperatorDescriptor&) {
      return std::make_unique<TokenizeWordsUdo>();
    }, pure);
    r.Register("sa_score", [](const OperatorDescriptor&) {
      return std::make_unique<SentimentScoreUdo>();
    }, pure);
    r.Register("lp_parse", [](const OperatorDescriptor&) {
      return std::make_unique<LogParseUdo>();
    }, pure);
    r.Register("tt_extract", [](const OperatorDescriptor&) {
      return std::make_unique<TopicExtractUdo>();
    }, pure);
    r.Register("tt_rank", [](const OperatorDescriptor&) {
      return std::make_unique<TopicRankUdo>(10);
    }, ordered);
    r.Register("mo_score", [](const OperatorDescriptor&) {
      return std::make_unique<MachineOutlierUdo>();
    }, ordered);
    r.Register("sd_spike", [](const OperatorDescriptor&) {
      return std::make_unique<SpikeDetectUdo>(16, 0.25);
    }, ordered);
    r.Register("sg_outlier", [](const OperatorDescriptor&) {
      return std::make_unique<SmartGridOutlierUdo>();
    }, ordered);
    r.Register("lr_toll", [](const OperatorDescriptor&) {
      return std::make_unique<LinearRoadTollUdo>();
    }, pure);
    r.Register("tm_map_match", [](const OperatorDescriptor&) {
      return std::make_unique<MapMatchUdo>();
    }, pure);
    r.Register("fd_score", [](const OperatorDescriptor&) {
      return std::make_unique<FraudScoreUdo>();
    }, ordered);
    r.Register("bi_vwap", [](const OperatorDescriptor&) {
      return std::make_unique<BargainIndexUdo>();
    }, ordered);
    r.Register("ca_dedup", [](const OperatorDescriptor&) {
      return std::make_unique<ClickDedupUdo>(1 << 20);
    }, ordered);
    r.Register("ad_ctr", [](const OperatorDescriptor&) {
      return std::make_unique<AdCtrUdo>();
    }, ordered);
    r.Register("tpch_disc_price", [](const OperatorDescriptor&) {
      return std::make_unique<TpchDiscPriceUdo>();
    }, pure);
    return true;
  }();
  (void)registered;
}

}  // namespace pdsp
