#include "data/corpus.hpp"

#include <array>
#include <stdexcept>


#include "data/kb_gen.hpp"
#include "data/math_gen.hpp"

namespace sdd::data {
namespace {

std::string render_document(const World& world, Rng& rng, const CorpusConfig& config) {
  const std::array<double, 7> weights{
      config.w_math_qa, config.w_equation_drill, config.w_kb_facts, config.w_kb_qa,
      config.w_routines, config.w_colors, config.w_instructions};
  switch (rng.weighted_index(std::span<const double>{weights})) {
    case 0: {  // solved math problem, house style
      MathGenOptions options;
      options.min_steps = 1;
      options.max_steps = 4;
      const MathProblem problem = make_math_problem(rng, options);
      return render_math_question(problem) + " <sep> " +
             render_math_solution(problem, SolutionStyle::kModel);
    }
    case 1: {  // arithmetic drill block of 3-5 equations
      const std::int64_t n = rng.uniform_int(3, 5);
      std::string text;
      for (std::int64_t i = 0; i < n; ++i) {
        if (i > 0) text += " . ";
        text += render_equation_drill(rng);
      }
      return text;
    }
    case 2: {  // 2-3 declarative facts
      const std::int64_t n = rng.uniform_int(2, 3);
      std::string text;
      for (std::int64_t i = 0; i < n; ++i) {
        if (i > 0) text += ' ';
        text += render_fact_statement(world, rng);
      }
      return text;
    }
    case 3: {  // KB QA pair
      const QaPair qa = render_kb_qa(world, rng);
      return qa.question + " <sep> " + qa.answer;
    }
    case 4:
      return render_routine_story(rng.choice(world.routines()));
    case 5:
      return render_color_statement(world, rng, config.myth_rate);
    default:
      return rng.bernoulli(0.5) ? render_alpaca_document(world, rng)
                                : render_dolly_document(world, rng);
  }
}

}  // namespace

std::vector<TokenId> build_pretraining_stream(const World& world,
                                              const CorpusConfig& config) {
  const Vocab& vocab = Vocab::instance();
  Rng rng{config.seed};
  std::vector<TokenId> stream;
  stream.reserve(static_cast<std::size_t>(config.n_documents) * 32);
  for (std::int64_t i = 0; i < config.n_documents; ++i) {
    stream.push_back(vocab.bos());
    const std::vector<TokenId> body =
        vocab.encode(render_document(world, rng, config));
    stream.insert(stream.end(), body.begin(), body.end());
    stream.push_back(vocab.eos());
  }
  return stream;
}

std::vector<std::vector<TokenId>> build_calibration_set(const World& world,
                                                        std::int64_t n_samples,
                                                        std::int64_t seq_len,
                                                        std::uint64_t seed) {
  CorpusConfig config;
  config.seed = seed;
  config.n_documents = n_samples * 4;  // more than enough tokens
  const std::vector<TokenId> stream = build_pretraining_stream(world, config);
  if (static_cast<std::int64_t>(stream.size()) < n_samples * seq_len) {
    throw std::logic_error("build_calibration_set: stream too short");
  }
  std::vector<std::vector<TokenId>> samples;
  samples.reserve(static_cast<std::size_t>(n_samples));
  for (std::int64_t i = 0; i < n_samples; ++i) {
    const auto begin = stream.begin() + i * seq_len;
    samples.emplace_back(begin, begin + seq_len);
  }
  return samples;
}

}  // namespace sdd::data
