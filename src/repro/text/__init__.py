"""Text-processing substrate: tokenisation, stemming, TF-IDF.

Everything the paper's scoring functions need from classic IR:

- :mod:`repro.text.tokenize` -- word tokenisation and n-grams.
- :mod:`repro.text.stopwords` -- English stopword list used throughout.
- :mod:`repro.text.stem` -- a full Porter stemmer implementation.
- :mod:`repro.text.analyze` -- the composed analysis pipeline
  (tokenise -> lowercase -> stopword filter -> stem).
- :mod:`repro.text.vocabulary` -- term <-> id mapping with document
  frequencies.
- :mod:`repro.text.vectorize` -- sparse vectors and the TF-IDF model of
  Salton's *Automatic Text Processing* (paper reference [6]).
- :mod:`repro.text.phrases` -- apriori-style frequent phrase mining
  (paper reference [5]) used by pattern construction.
"""

from repro.text.analyze import Analyzer, default_analyzer
from repro.text.phrases import FrequentPhraseMiner, Phrase
from repro.text.stem import PorterStemmer, stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import ngrams, tokenize
from repro.text.vectorize import SparseVector, TfidfModel
from repro.text.vocabulary import Vocabulary

__all__ = [
    "Analyzer",
    "default_analyzer",
    "FrequentPhraseMiner",
    "Phrase",
    "PorterStemmer",
    "stem",
    "STOPWORDS",
    "tokenize",
    "ngrams",
    "SparseVector",
    "TfidfModel",
    "Vocabulary",
]
